package rqudp

import (
	"bytes"
	"context"
	"net"
	"slices"
	"testing"
	"time"

	"polyraptor/internal/netshim"
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
// with up to twice the time, at random. Symbol counts are medians, against
// the lossless rung's upper quartile: how far the senders' round-robin
// repair phase overshoots depends on how far apart they finish.
func TestLossLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("fetches 8 MiB seventy times")
	}
	const fetches = 5
	obj := randObject(t, 8<<20)
	k := len(obj) / DefaultConfig().SymbolSize
	quiet := DefaultConfig().RetryInterval / 4
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
		loss    float64       // the share of symbols its network loses
	}{
		{"0.1% of symbols lost", newRung(t, obj, 2, 0, data(0.001)), clean, 1.3, 0, 0, 0.001},
		{"1% of symbols lost", newRung(t, obj, 2, 0, data(0.01)), clean, 1.3, 0, 0, 0.01},
		{"5% of symbols lost", newRung(t, obj, 2, 0, data(0.05)), clean, 2, 0, 0, 0.05},
		{"25% of symbols lost", newRung(t, obj, 2, 0, data(0.25)), clean, 0, 0, 1, 0.25},
		{"5% of pulls lost", newRung(t, obj, 2, 0, netshim.Config{Seed: 7, Up: netshim.Faults{Loss: 0.05}}), clean, 1.5, 0, 0, 0},
		{"one sender of two silent", newRung(t, obj, 2, 1, netshim.Config{}), single, 1, quiet, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, base := tc.rung, tc.base
			within := func() bool {
				limit := time.Duration(tc.factor*float64(base.bestNet)) + tc.plus
				return limit == 0 || r.bestNet <= limit || raceDetector
			}
			// No over-pull storm: what arrives is what the object needs, the
			// replacements of what was lost, the window in flight at the end,
			// and the slack the senders' round-robin repair leaves without loss.
			symbols := func() int { return int(float64(k)*(1+tc.loss)) + standingWindow + base.quartile(3) - k }
			// Whatever else the host is running (the rest of go test ./...,
			// say) takes its CPUs away for seconds at a time, and senders
			// that are not run look silent: a rung that misses a bar is
			// given three more rounds to find a quiet one.
			for round := 0; round < 4 && (round == 0 || !within() || r.quartile(2) > symbols()); round++ {
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
			if r.quartile(2) > symbols() {
				t.Errorf("the median fetch received %d symbols, want at most %d", r.quartile(2), symbols())
			}
		})
	}
}
