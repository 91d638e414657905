package rqudp

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"

	"polyraptor/internal/wire"
)

func TestFetchStatsUnicast(t *testing.T) {
	obj := randObject(t, 200_000)
	srv := startServer(t, obj, DefaultConfig())
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, stats, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, 11, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	minSymbols := len(obj) / DefaultConfig().SymbolSize
	if stats.Symbols < minSymbols {
		t.Fatalf("stats report %d symbols, need at least %d", stats.Symbols, minSymbols)
	}
	if len(stats.PerSender) != 1 || stats.PerSender[0] != stats.Symbols {
		t.Fatalf("per-sender accounting wrong: %+v", stats)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

// Over loopback with three servers: what no scheduler can break. Who
// delivers how much is the runtime's business — a server it does not get
// round to in time sits a short fetch out — so the attribution rules are
// checked on a fixed interleaving in TestFetchAttribution, and the object
// here is large enough that every server has long been heard from, its
// initial window at the least, before the other two can finish.
func TestFetchStatsMultiSourceBalance(t *testing.T) {
	obj := randObject(t, 8<<20)
	cfg := DefaultConfig()
	srvs := []*Server{
		startServer(t, obj, cfg),
		startServer(t, obj, cfg),
		startServer(t, obj, cfg),
	}
	remotes := []net.Addr{srvs[0].Addr(), srvs[1].Addr(), srvs[2].Addr()}
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, stats, err := FetchMultiSourceStats(ctx, conn, remotes, 12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	total := 0
	for i, n := range stats.PerSender {
		if n < standingWindow/len(remotes) {
			t.Fatalf("sender %d delivered %d symbols, not even its initial window: %+v", i, n, stats)
		}
		total += n
	}
	if total != stats.Symbols {
		t.Fatalf("per-sender sum %d != symbols %d", total, stats.Symbols)
	}
}

// The attribution rules, on a fixed interleaving of three senders and a
// stranger fed to the fetcher by hand: every fresh symbol counts for the
// sender it came from and slides that sender's window, whoever's partition
// it is from; a duplicate counts for nobody and moves nothing; the Seqs a
// sender skipped are counted lost when a later one arrives, late arrivals
// too; a fresh symbol from an address the fetch was not given is granted
// a window there, at once, and attributed to no sender. When the drain
// ends each sender is granted the rest of its source partition, and the one
// owing fewest the symbol the block lacks beyond them, and one more for
// the loss measured. Then the senders fall silent: each is granted again
// after quiet of waiting, and again after twice as long each time,
// RetryInterval apart at most, until it is heard again.
func TestFetchAttribution(t *testing.T) {
	const symbolSize, k, flow = 32, 30, 14
	snd := newFakeSender(t, randObject(t, symbolSize*k), symbolSize, flow)
	ff := newFetcherFeed(flow, 3)
	stranger := addrPortOf(peer(6000))
	feed := func(from netip.AddrPort, pkt []byte) {
		t.Helper()
		if err := ff.handle(datagram{data: pkt, from: from}); err != nil {
			t.Fatal(err)
		}
	}
	feed(ff.senders[1].peer, snd.announce())
	// (sender, ESI, Seq); sender 3 is the stranger. ESIs 0-9, 10-19 and
	// 20-29 are the three partitions, 30 and up repair. Sender 0 loses its
	// Seq 2; sender 1 its 1 and 2, of which 2 arrives late; sender 2's 1
	// rides on a duplicate, which is as good as lost.
	script := [][3]uint32{
		{0, 0, 0}, {1, 10, 0}, {2, 20, 0}, {0, 1, 1}, {0, 1, 7}, {1, 11, 3}, {2, 0, 1}, {3, 12, 40}, {2, 21, 2}, {1, 2, 2},
		{0, 30, 3}, {3, 30, 41}, {1, 31, 4}, {2, 22, 3}, {3, 13, 42}, {0, 3, 4}, {2, 31, 4}, {1, 14, 5},
	}
	wantPer, wantHi, wantDup, wantStranger := []int{0, 0, 0}, []uint32{5, 6, 4}, 0, 0
	seen := map[uint32]bool{}
	for _, step := range script {
		from, esi := stranger, step[1]
		if step[0] < 3 {
			from = ff.senders[step[0]].peer
		}
		feed(from, snd.dataSeq(esi, step[2]))
		switch {
		case seen[esi]:
			wantDup++
		case step[0] < 3:
			wantPer[step[0]]++
		default:
			wantStranger++
		}
		seen[esi] = true
	}
	st := ff.stats
	if !slices.Equal(st.PerSender, wantPer) || st.Duplicates != wantDup {
		t.Fatalf("attributed %v with %d duplicates, want %v with %d", st.PerSender, st.Duplicates, wantPer, wantDup)
	}
	if sum := wantPer[0] + wantPer[1] + wantPer[2] + wantStranger; st.Symbols != sum {
		t.Fatalf("%d symbols, want %d", st.Symbols, sum)
	}
	if st.Lost != 1+2+1 {
		t.Fatalf("%d symbols counted lost, want one, two and one", st.Lost)
	}
	for i, s := range ff.senders {
		if s.hi != wantHi[i] || s.granted != 0 {
			t.Fatalf("sender %d: window at %d, granted %d; want it at %d and nothing granted before the drain ends", i, s.hi, s.granted, wantHi[i])
		}
	}
	// Nothing has been sent to the senders yet: their pulls go out when the
	// drain ends. The stranger's went out as its symbols came in.
	sent := ff.io.conn.(*scriptConn).sent
	if st.PullsSent != wantStranger || sent[6000] != wantStranger || len(sent) != 1 {
		t.Fatalf("%d pulls sent, packets by port %v; want %d, all to the stranger", st.PullsSent, sent, wantStranger)
	}
	ff.slide()
	if ff.stats.PullsSent != wantStranger+3 || sent[5000] != 1 || sent[5001] != 1 || sent[5002] != 1 {
		t.Fatalf("after the drain: %d pulls sent, packets by port %v; want one to each sender", ff.stats.PullsSent, sent)
	}
	// 14 of the block's 30 symbols are in; 15 source symbols are still to
	// come, 5, 4 and 6 from the three; 4 of 14 Seqs were lost.
	for i, want := range []uint32{10, 10 + 1 + 1, 10} {
		if s := ff.senders[i]; s.src != 10 || s.granted != want {
			t.Fatalf("sender %d: window at %d, granted %d; want %d", i, s.hi, s.granted, want)
		}
	}
	ff.slide()
	if ff.stats.PullsSent != wantStranger+3 {
		t.Fatal("a second pull for the same window")
	}

	// Silence, from the senders' last fresh symbols on, watched in steps of
	// half a quiet period q. With a round trip timed, q is its floor, a
	// fiftieth of RetryInterval, so that all three are re-granted at q, 3q,
	// 7q, 15q, 31q and 63q, then 50q apart.
	ff.srtt = time.Microsecond
	q := ff.quiet()
	if 50*q != ff.cfg.RetryInterval {
		t.Fatalf("quiet %v, RetryInterval %v", q, ff.cfg.RetryInterval)
	}
	var granted [3]uint32
	for i, s := range ff.senders {
		granted[i] = s.granted
	}
	due := []time.Duration{q, 3 * q, 7 * q, 15 * q, 31 * q, 63 * q, 113 * q, 163 * q}
	n := 0 // of due, those past
	for idle := time.Duration(0); idle <= due[len(due)-1]; idle += q / 2 {
		ff.stats.Idle = idle
		ff.slide()
		for n < len(due) && due[n] <= idle {
			n++
		}
		if want := 3 * n; ff.stats.Regrants != want || ff.stats.PullsSent != wantStranger+3+want {
			t.Fatalf("silent for %v: %d re-grants and %d pulls, want %d of each", idle, ff.stats.Regrants, ff.stats.PullsSent-wantStranger-3, want)
		}
	}
	// All silent, all written off: each time, the first is granted the 16
	// symbols the block lacks and 5 for the loss measured, the others one
	// symbol each, to find out whether they are back.
	for i, more := range []uint32{16 + 5, 1, 1} {
		if got := ff.senders[i].granted; got != granted[i]+uint32(len(due))*more {
			t.Fatalf("sender %d granted %d after %d re-grants of %d from %d", i, got, len(due), more, granted[i])
		}
	}
	// Sender 0 is heard again, far along its new grants: the rest of the
	// window it skipped is lost, and its count starts over, at q and 3q,
	// while the other two wait out RetryInterval.
	feed(ff.senders[0].peer, snd.dataSeq(5, 100))
	ff.slide()
	if s := ff.senders[0]; ff.stats.Lost != 4+95 || s.hi != 101 || s.regrants != 0 {
		t.Fatalf("after Seq 100: %+v, %d lost", s, ff.stats.Lost)
	}
	heard, before := ff.stats.Idle, ff.stats.Regrants
	for _, c := range []struct {
		after time.Duration
		want  int
	}{{q / 2, 0}, {q, 1}, {2 * q, 1}, {3 * q, 2}, {4 * q, 2}} {
		ff.stats.Idle = heard + c.after
		ff.slide()
		if got := ff.stats.Regrants - before; got != c.want {
			t.Fatalf("%v after sender 0 was heard: %d re-grants, want %d", c.after, got, c.want)
		}
	}
}

// A fetch costs its object once: symbols are received in place in the
// result, and the rings of coalesced reads are passed on from fetch to
// fetch. What a 1 MiB two-server fetch allocates beyond the MiB itself is
// the decode scratch of the blocks that the faster sender's repair
// symbols completed before the slower one's source symbols arrived (it
// was 2.45 MB with an intake copy and a result copy). How far one sender
// gets ahead is the scheduler's doing, and the odd fetch that loses one
// for a while holds half its object in repair symbols: the median of a
// few fetches is what is pinned.
func TestFetchAllocatesItsObjectOnce(t *testing.T) {
	obj := randObject(t, 1<<20)
	cfg := DefaultConfig()
	cfg.Workers = 1
	remotes := []net.Addr{startServer(t, obj, cfg).Addr(), startServer(t, obj, cfg).Addr()}
	conn := newUDP(t)
	defer conn.Close()
	var before, after runtime.MemStats
	var cost []uint64
	for flow := uint32(1); flow <= 17; flow++ {
		runtime.ReadMemStats(&before)
		got, _, err := FetchMultiSourceStats(context.Background(), conn, remotes, flow, cfg)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, obj) {
			t.Fatalf("fetch %d: %v", flow, err)
		}
		if flow > 2 { // the first ones fill the ring free list and make the servers' sessions
			cost = append(cost, after.TotalAlloc-before.TotalAlloc)
		}
	}
	slices.Sort(cost)
	if median := cost[len(cost)/2]; median > 1_450_000 {
		t.Fatalf("the median 1 MiB fetch allocated %d bytes, want at most 1.45 MB: %v", median, cost)
	}
}

// duplicateSender is a misbehaving sender that answers every Hello
// with a valid Announce and every Hello/Pull with the same Data symbol
// (SBN 0, ESI 0) over and over. A correct receiver must hit the
// MaxRetries abort: duplicates are not progress.
func duplicateSender(t *testing.T, symbolSize int) net.Addr {
	t.Helper()
	conn := newUDP(t)
	t.Cleanup(func() { conn.Close() })
	payload := make([]byte, symbolSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() {
		buf := make([]byte, 65536)
		for {
			n, from, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			hdr, _, err := wire.ParseHeader(buf[:n])
			if err != nil {
				continue
			}
			switch hdr.Type {
			case wire.MsgHello:
				out := wire.AppendAnnounce(nil, wire.Announce{
					Flow:       hdr.Flow,
					ObjectSize: uint64(2 * symbolSize), // K=2: never decodable from one symbol
					SymbolSize: uint32(symbolSize),
					MaxK:       256,
				})
				_, _ = conn.WriteTo(out, from)
				fallthrough
			case wire.MsgPull:
				out := wire.AppendData(nil, wire.Data{
					Flow:    hdr.Flow,
					SBN:     0,
					ESI:     0,
					Payload: payload,
				})
				_, _ = conn.WriteTo(out, from)
			}
		}
	}()
	return conn.LocalAddr()
}

// Regression (ISSUE 3): a sender replaying duplicate symbols used to
// reset the retry counter on every Data packet, defeating MaxRetries —
// the fetch would stall forever instead of aborting.
func TestDuplicatesOnlySenderHitsRetryAbort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryInterval = 10 * time.Millisecond
	cfg.MaxRetries = 3
	sender := duplicateSender(t, cfg.SymbolSize)
	conn := newUDP(t)
	defer conn.Close()
	// The context bounds the test if the bug regresses (infinite stall);
	// the fetch itself must abort well before the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, stats, err := FetchMultiSourceStats(ctx, conn, []net.Addr{sender}, 21, cfg)
	if err == nil {
		t.Fatal("duplicates-only fetch succeeded?!")
	}
	if ctx.Err() != nil {
		t.Fatalf("fetch hit the test deadline instead of the MaxRetries abort: %v", err)
	}
	if stats.Retries <= cfg.MaxRetries {
		t.Fatalf("retries = %d, want > MaxRetries (%d)", stats.Retries, cfg.MaxRetries)
	}
	if stats.Duplicates == 0 {
		t.Fatal("no duplicates recorded; sender misbehaving in the wrong way")
	}
	if stats.Symbols != 1 {
		t.Fatalf("fresh symbols = %d, want exactly 1", stats.Symbols)
	}
}

// A fetch from an address nothing listens at is granted again and again
// on the backoff, and aborts after MaxRetries stall periods and one more.
func TestFetchStatsStallCounting(t *testing.T) {
	conn := newUDP(t)
	defer conn.Close()
	dead, _ := net.ResolveUDPAddr("udp", "127.0.0.1:1")
	cfg := DefaultConfig()
	cfg.RetryInterval = 10 * time.Millisecond
	cfg.MaxRetries = 3
	_, stats, err := FetchMultiSourceStats(context.Background(), conn, []net.Addr{dead}, 13, cfg)
	if err == nil {
		t.Fatal("dead fetch succeeded")
	}
	if stats.Retries <= cfg.MaxRetries || stats.Regrants == 0 {
		t.Fatalf("%d stall periods and %d re-grants, want more than %d and some", stats.Retries, stats.Regrants, cfg.MaxRetries)
	}
	if stats.Symbols != 0 {
		t.Fatalf("symbols = %d from a dead address", stats.Symbols)
	}
}

// regrantsDue is how many times a sender silent for idle of waiting is
// granted again when the first wait is q and each later one twice the
// last, most at the longest.
func regrantsDue(idle, q, most time.Duration) (n int) {
	for at, wait := q, q; at <= idle; at += wait {
		n++
		wait = min(2*wait, most)
	}
	return n
}

// A sender that owes nothing is idle, not silent: however long it waits it
// is not granted again. When a silent partner's share falls to it, its
// wait starts at that grant, not at the last symbol it sent.
func TestIdleSenderWaitsFromItsGrant(t *testing.T) {
	const symbolSize, k, flow = 32, 60, 16 // one block, 30 source symbols a sender
	snd := newFakeSender(t, randObject(t, symbolSize*k), symbolSize, flow)
	ff := newFetcherFeed(flow, 2)
	feed := func(i int, esi, seq uint32) {
		t.Helper()
		if err := ff.handle(datagram{data: snd.dataSeq(esi, seq), from: ff.senders[i].peer}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ff.handle(datagram{data: snd.announce(), from: ff.senders[0].peer}); err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 30; seq++ {
		feed(0, seq, seq) // all of sender 0's partition
		if seq < 20 {
			feed(1, 30+seq, seq)
		}
	}
	ff.slide()
	q := ff.quiet()
	// Sender 1 goes on sending its partition for 4q; sender 0 waits, idle.
	for seq := uint32(20); seq < 28; seq++ {
		ff.stats.Idle += q / 2
		feed(1, 30+seq, seq)
		ff.slide()
	}
	if ff.stats.Regrants != 0 || ff.senders[0].granted != 30 {
		t.Fatalf("sender 0, idle for %v: %d re-grants, granted %d; want none, and its 30", ff.stats.Idle, ff.stats.Regrants, ff.senders[0].granted)
	}
	// Sender 1 falls silent owing 2: they fall to sender 0, whose wait
	// starts there.
	ff.stats.Idle += q
	ff.slide()
	if s := ff.senders[0]; ff.stats.Regrants != 1 || !ff.senders[1].silent || s.granted != 32 {
		t.Fatalf("%d re-grants, sender 1 silent: %v, sender 0 granted %d; want 1, true and 32", ff.stats.Regrants, ff.senders[1].silent, s.granted)
	}
	ff.stats.Idle += q / 2
	ff.slide()
	if ff.stats.Regrants != 1 || ff.senders[0].silent {
		t.Fatalf("sender 0 was made silent %v after its grant, quiet being %v", q/2, q)
	}
}
