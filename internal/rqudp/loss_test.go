package rqudp

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"polyraptor/internal/netshim"
	"polyraptor/internal/wire"
)

// rung is a place on the loss ladder: servers behind hostile-network
// shims, a fetcher's socket, and what the fetches made there so far
// took. The platform's packet I/O is on at both ends.
type rung struct {
	cfg     Config
	remotes []net.Addr
	conn    net.PacketConn
	flow    uint32

	best, bestNet     time.Duration // the quickest fetch, and the quickest but for its decoding
	symbols           []int         // of each fetch
	retries, regrants int           // the most of any fetch
}

func newRung(t *testing.T, obj []byte, senders, muted int, hostile netshim.Config) *rung {
	t.Helper()
	r := &rung{cfg: DefaultConfig(), conn: newUDP(t)}
	t.Cleanup(func() { r.conn.Close() })
	var nets []*netshim.Shim
	r.remotes, nets, _ = shimmedServers(t, obj, r.cfg, senders, shims[0].wrap, hostile)
	for _, sh := range nets[:muted] {
		sh.Mute(0, 0)
	}
	return r
}

// fetch makes one more fetch of obj on the rung.
func (r *rung) fetch(t *testing.T, obj []byte) {
	t.Helper()
	r.flow++
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, r.conn, r.remotes, r.flow, r.cfg)
	if err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("fetch %d: %v (%+v)", r.flow, err, st)
	}
	if r.best == 0 || st.Elapsed < r.best {
		r.best = st.Elapsed
	}
	if net := st.Elapsed - st.Decode; r.bestNet == 0 || net < r.bestNet {
		r.bestNet = net
	}
	r.symbols = append(r.symbols, st.Symbols)
	r.retries, r.regrants = max(r.retries, st.Retries), max(r.regrants, st.Regrants)
}

// quartile is quartile q (2: the median) of the symbol counts of the
// rung's fetches.
func (r *rung) quartile(q int) int {
	s := slices.Sorted(slices.Values(r.symbols))
	return s[len(s)*q/4]
}

// The loss ladder (ROADMAP item 1): 8 MiB from two senders through the
// hostile-network shim, default Config. A lost symbol or a lost pull costs
// a replacement and never a wait: no rung below 25 % has a stall period,
// and completion time is flat in loss but for what loss must cost,
// the solving of the blocks it touched. That is a third of a millisecond a
// block whether one symbol is missing or sixty, on the fetcher's CPU, and
// on a two-CPU host, where that CPU is also the shims' and the servers',
// it comes on top of a transfer that the shim makes quicker than any real
// network would: the time bars are therefore on the fetch net of
// FetchStats.Decode, and the table in docs/perf/pr21-socket-window.md has
// both.
//
// Times are the best of five fetches a rung (of up to twenty, if the
// first five miss the bar), taken turn and turn about with the lossless
// rung they are compared to: on a small VM a fetch
// whose 8 MiB buffer comes fresh from the system pays for its page faults
// with up to twice the time, at random. A fetch pulls only what it lacks
// (ROADMAP item 4): on every rung the median fetch receives at most 2 %
// more symbols than the object's 8,192, and none more than 9,000.
func TestLossLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("fetches 8 MiB seventy times")
	}
	const fetches = 5
	obj := randObject(t, 8<<20)
	k := len(obj) / DefaultConfig().SymbolSize
	quiet := DefaultConfig().RetryInterval / 4
	// What arrives is what the object needs: its source symbols, and repair
	// for what was lost, to the blocks that lack it.
	bar := k * 102 / 100
	pulledOnly := func(t *testing.T, r *rung) {
		t.Helper()
		if median := r.quartile(2); median > bar {
			t.Errorf("the median fetch received %d symbols, want at most %d", median, bar)
		}
		if most := slices.Max(r.symbols); most > 9000 {
			t.Errorf("a fetch received %d symbols of %d, want at most 9,000", most, k)
		}
	}
	data := func(p float64) netshim.Config { return netshim.Config{Seed: 7, Down: netshim.Faults{Loss: p}} }
	clean := newRung(t, obj, 2, 0, netshim.Config{})
	single := newRung(t, obj, 1, 0, netshim.Config{})
	for _, tc := range []struct {
		name    string
		rung    *rung
		base    *rung
		factor  float64       // the rung's best time is at most this many of base's,
		plus    time.Duration // and this; no bar if both are zero
		retries int           // no fetch on it saw more stall periods than this
	}{
		{"0.1% of symbols lost", newRung(t, obj, 2, 0, data(0.001)), clean, 1.3, 0, 0},
		{"1% of symbols lost", newRung(t, obj, 2, 0, data(0.01)), clean, 1.3, 0, 0},
		{"5% of symbols lost", newRung(t, obj, 2, 0, data(0.05)), clean, 2, 0, 0},
		{"25% of symbols lost", newRung(t, obj, 2, 0, data(0.25)), clean, 0, 0, 1},
		{"5% of pulls lost", newRung(t, obj, 2, 0, netshim.Config{Seed: 7, Up: netshim.Faults{Loss: 0.05}}), clean, 1.5, 0, 0},
		{"one sender of two silent", newRung(t, obj, 2, 1, netshim.Config{}), single, 1, quiet, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, base := tc.rung, tc.base
			within := func() bool {
				limit := time.Duration(tc.factor*float64(base.bestNet)) + tc.plus
				return limit == 0 || r.bestNet <= limit || raceDetector
			}
			// Whatever else the host is running (the rest of go test ./...,
			// say) takes its CPUs away for seconds at a time, and senders
			// that are not run look silent: a rung that misses a bar is
			// given three more rounds to find a quiet one.
			for round := 0; round < 4 && (round == 0 || !within() || r.quartile(2) > bar); round++ {
				for i := 0; i < fetches; i++ {
					base.fetch(t, obj)
					r.fetch(t, obj)
				}
			}
			t.Logf("best %v, %v net of decoding (lossless %v, %v); symbols %v (lossless %v); %d re-grants, %d retries",
				r.best, r.bestNet, base.best, base.bestNet, r.symbols, base.symbols, r.regrants, r.retries)
			if r.retries > tc.retries {
				t.Errorf("a fetch had %d stall periods, want at most %d", r.retries, tc.retries)
			}
			if !within() {
				t.Errorf("best fetch %v net of decoding, want at most %.1f x the lossless %v + %v", r.bestNet, tc.factor, base.bestNet, tc.plus)
			}
			pulledOnly(t, r)
		})
	}
	pulledOnly(t, clean)
	pulledOnly(t, single)
}

// slowConn is a server's socket that takes its time over its packets, as
// a server on a busy host does: it sleeps before every eighth.
type slowConn struct {
	net.PacketConn
	n int
}

func (c *slowConn) WriteTo(p []byte, to net.Addr) (int, error) {
	if c.n++; c.n%8 == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	return c.PacketConn.WriteTo(p, to)
}

// tripConn is a server's socket that mutes the shim in front of it, after
// after and for length, once it has written trip Data packets: at an exact
// point of the schedule, whatever the scheduler does. (The shim drops what
// it has yet to forward when the mute begins.)
type tripConn struct {
	net.PacketConn
	shim          atomic.Pointer[netshim.Shim]
	n, trip       atomic.Int64
	after, length time.Duration
}

func (c *tripConn) WriteTo(p []byte, to net.Addr) (int, error) {
	if hdr, _, err := wire.ParseHeader(p); err == nil && hdr.Type == wire.MsgData && c.n.Add(1) == c.trip.Load() {
		c.shim.Load().Mute(c.after, c.length)
	}
	return c.PacketConn.WriteTo(p, to)
}

// stragglerPair starts a quick server and a slow one for obj, each behind
// a shim that records what it emits, and returns the remotes in that order
// and the quick one's socket.
func stragglerPair(t *testing.T, obj []byte, cfg Config, after, length time.Duration) ([]net.Addr, []*netshim.Shim, []*Server, *tripConn) {
	t.Helper()
	trip := &tripConn{after: after, length: length}
	remotes, nets, srvs := shimmedServers(t, obj, cfg, 1, func(c net.PacketConn) net.PacketConn {
		trip.PacketConn = c
		return trip
	}, netshim.Config{Record: true})
	trip.shim.Store(nets[0])
	slow := func(c net.PacketConn) net.PacketConn { return &slowConn{PacketConn: c} }
	r, n, s := shimmedServers(t, obj, cfg, 1, slow, netshim.Config{Record: true})
	return append(remotes, r...), append(nets, n...), append(srvs, s...), trip
}

// Of two senders, the slow one still has source symbols to send when the
// quick one has sent its own, which with what is in flight is all every
// block lacks: the quick one is left idle, and idle is not silent — it is
// not granted again (TestIdleSenderWaitsFromItsGrant pins that whatever
// the wait). It is even muted a while, from when its last symbol has
// passed, which costs nothing, as it sends nothing. The fetch receives
// exactly the object's source symbols; no repair symbol is emitted and no
// block precoded. (A slow sender that the host leaves unrun for longer
// than quiet is silent, and the quick one rightly takes over from it: such
// a fetch is retried, four times at most.)
func TestStragglerIdleIsNotSilent(t *testing.T) {
	obj := randObject(t, 1<<20)
	cfg := DefaultConfig()
	cfg.Workers = 1
	remotes, nets, srvs, trip := stragglerPair(t, obj, cfg, 2*time.Millisecond, 10*time.Millisecond)
	layout := srvs[0].enc.Layout()
	quick := 0
	for _, k := range layout.K {
		_, span := partition(k, 0, 2)
		quick += span
	}
	conn := newUDP(t)
	defer conn.Close()
	clean := func(flow uint32) error {
		nets[0].Mute(0, time.Nanosecond)
		trip.trip.Store(trip.n.Load() + int64(quick)) // muted once its partition has been sent, and has passed
		precoded := srvs[0].Stats().Precoded + srvs[1].Stats().Precoded
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		got, st, err := FetchMultiSourceStats(ctx, conn, remotes, flow, cfg)
		if err != nil || !bytes.Equal(got, obj) {
			t.Fatalf("fetch: %v (%+v)", err, st)
		}
		if q := 4 * quietFloor; st.Elapsed < q {
			return fmt.Errorf("the slow sender took %v in all, under %v: the quick one was not idle long enough to tell", st.Elapsed, q)
		}
		if st.Symbols != layout.TotalSymbols() || st.Regrants != 0 || st.Lost != 0 {
			return fmt.Errorf("%d symbols of %d, %d re-grants, %d lost: %+v", st.Symbols, layout.TotalSymbols(), st.Regrants, st.Lost, st)
		}
		for i, sh := range nets {
			for _, id := range sh.Book(flow).Emitted {
				if id[1] >= uint32(layout.K[id[0]]) {
					return fmt.Errorf("server %d emitted repair symbol %v", i, id)
				}
			}
		}
		if p := srvs[0].Stats().Precoded + srvs[1].Stats().Precoded - precoded; p != 0 {
			return fmt.Errorf("%d blocks precoded", p)
		}
		return nil
	}
	var err error
	for flow := uint32(1); flow <= 5; flow++ {
		if err = clean(flow); err == nil {
			return
		}
		t.Logf("fetch %d: %v", flow, err)
	}
	t.Fatal(err)
}

// The quick sender of two goes silent for good a quarter of the way through
// its partition. After quiet it is written off: the slow one takes its
// share, then the repair symbols its blocks lack, and the fetch completes
// within what one sender alone takes, plus quiet. No repair symbol goes to
// a block that a Pull which reached the server had said was finished (the
// network shims check it).
func TestStragglerTakesOver(t *testing.T) {
	obj := randObject(t, 1<<20)
	cfg := DefaultConfig()
	cfg.Workers = 1
	quiet := cfg.RetryInterval / 4
	remotes, nets, _, trip := stragglerPair(t, obj, cfg, 0, 0)
	conn := newUDP(t)
	defer conn.Close()
	var alone, muted time.Duration
	for flow := uint32(1); flow <= 6; flow += 2 {
		nets[0].Mute(0, time.Nanosecond) // heard again, from the start
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		got, st, err := FetchMultiSourceStats(ctx, conn, remotes[1:], flow, cfg)
		if err != nil || !bytes.Equal(got, obj) {
			cancel()
			t.Fatalf("fetch from the slow sender alone: %v (%+v)", err, st)
		}
		if alone == 0 || st.Elapsed < alone {
			alone = st.Elapsed
		}
		trip.trip.Store(trip.n.Load() + 128)
		got, st, err = FetchMultiSourceStats(ctx, conn, remotes, flow+1, cfg)
		cancel()
		if err != nil || !bytes.Equal(got, obj) {
			t.Fatalf("fetch: %v (%+v)", err, st)
		}
		if st.PerSender[0] == 0 || st.PerSender[0] >= len(obj)/cfg.SymbolSize/2 || st.Regrants == 0 {
			t.Fatalf("the quick sender delivered %d symbols before it went silent, %d re-grants: %+v", st.PerSender[0], st.Regrants, st)
		}
		if muted == 0 || st.Elapsed < muted {
			muted = st.Elapsed
		}
	}
	t.Logf("best %v with the quick sender silenced, %v from the slow one alone", muted, alone)
	if muted > alone+quiet && !raceDetector {
		t.Fatalf("best fetch %v with the quick sender silenced, want at most %v alone + %v", muted, alone, quiet)
	}
}
