package rqudp

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"polyraptor/internal/netshim"
	"polyraptor/internal/wire"
)

// A receiver granted the source symbols and no more — a fetch from one
// sender that lost nothing — costs the server no precode. Each grant past
// them is paid in repair symbols, round-robin over the blocks, and
// Precoded rises by exactly the blocks those touched for the first time.
func TestPrecodedCountsTheBlocksRepairTouched(t *testing.T) {
	s := newScriptedServerWith(t, 64, 16, 64*40) // blocks of 14, 13 and 13
	layout := s.enc.Layout()
	grant := uint32(layout.TotalSymbols())
	s.conn.push(wire.AppendHello(nil, wire.Hello{Flow: 1, SenderCount: 1, Grant: grant}), 3000)
	s.run(t)
	for _, id := range s.conn.ids {
		if id[1] >= uint32(layout.K[id[0]]) {
			t.Fatalf("symbol %v sent within the source symbols' grant", id)
		}
	}
	if len(s.conn.ids) != int(grant) || s.Stats().Precoded != 0 {
		t.Fatalf("granted the %d source symbols: sent %d, %d blocks precoded; want all of them and none", grant, len(s.conn.ids), s.Stats().Precoded)
	}
	touched := map[uint32]bool{}
	for _, more := range []uint32{2, 1, 4} {
		s.conn.ids = nil
		grant += more
		s.conn.push(pull(1, grant), 3000)
		s.run(t)
		for _, id := range s.conn.ids {
			if id[1] < uint32(layout.K[id[0]]) {
				t.Fatalf("source symbol %v sent twice", id)
			}
			touched[id[0]] = true
		}
		if got := s.Stats().Precoded; len(s.conn.ids) != int(more) || got != len(touched) {
			t.Fatalf("%d repair symbols more (%v): %d blocks precoded, want the %d they have touched", len(s.conn.ids), s.conn.ids, got, len(touched))
		}
	}
}

// The same over sockets, with a real fetch from one fresh server behind a
// network that loses 2 % of the symbols: the server sends the source
// symbols, then repair round-robin over the blocks the fetcher's pulls have
// not said are finished, so the blocks precoded are those it sent repair
// symbols of, and no more than those that lost a symbol or whose source
// symbols the last window was still carrying. The object is 64 blocks, all
// of which a Pull can name finished, and a window spans a quarter of them.
func TestPrecodedAfterALossyFetch(t *testing.T) {
	cfg := DefaultConfig()
	conn := newUDP(t)
	defer conn.Close()
	window, _ := fetchWindow(conn, 1, cfg.SymbolSize)
	cfg.MaxBlockK = max(8, int(window)/16)
	tail := (int(window)+cfg.MaxBlockK-1)/cfg.MaxBlockK + 1 // blocks one window of source symbols spans
	obj := randObject(t, 64*cfg.MaxBlockK*cfg.SymbolSize)
	srv, err := NewServer(newUDP(t), obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve()
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	sh, err := netshim.New(srv.Addr(), netshim.Config{Seed: 11, Down: netshim.Faults{Loss: 0.02}, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, []net.Addr{sh.Addr()}, 1, cfg)
	if err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("fetch: %v", err)
	}
	srv.Close()
	<-served // every burst the server built is counted now
	layout := srv.enc.Layout()
	repaired := map[uint32]bool{}
	for _, id := range sh.Book(1).Emitted {
		if id[1] >= uint32(layout.K[id[0]]) {
			repaired[id[0]] = true
		}
	}
	_, down := sh.Counts()
	if st.Lost == 0 || len(repaired) == 0 {
		t.Fatalf("the network lost %d symbols and the server sent repair symbols of %d blocks: no repair to count", st.Lost, len(repaired))
	}
	if p := srv.Stats().Precoded; p != len(repaired) || p > down.Lost+tail || p >= layout.Z() {
		t.Fatalf("%d blocks precoded, repair sent of %d, %d symbols lost; want as many as were repaired, at most %d, of %d", p, len(repaired), down.Lost, down.Lost+tail, layout.Z())
	}
	if err := sh.Err(); err != nil {
		t.Fatal(err)
	}
}

// A Pull's block state steers the server in both phases: the rest of a
// finished block's source symbols is never sent, repair goes round-robin
// over the unfinished blocks only, once every block is finished a grant is
// paid nothing, and a state older than one heard takes nothing back.
// A Hello, which a new fetch on the session sends, starts the blocks over.
func TestFinishedBlocksSkipped(t *testing.T) {
	s := newScriptedServerWith(t, 64, 16, 64*40) // blocks of 14, 13 and 13
	pullBlocks := func(grant uint32, b wire.Blocks) []byte {
		return wire.AppendPull(nil, wire.Pull{Flow: 1, Grant: grant, Blocks: b})
	}
	sent := func(pkt []byte) [][2]uint32 {
		t.Helper()
		s.conn.ids = nil
		s.conn.push(pkt, 3000)
		s.run(t)
		return s.conn.ids
	}
	ids := func(sbn uint32, esis ...uint32) (out [][2]uint32) {
		for _, esi := range esis {
			out = append(out, [2]uint32{sbn, esi})
		}
		return out
	}
	seq := func(lo, hi uint32) (out []uint32) {
		for ; lo < hi; lo++ {
			out = append(out, lo)
		}
		return out
	}
	s.conn.push(wire.AppendHello(nil, wire.Hello{Flow: 1, SenderCount: 1, Grant: 5}), 3000)
	s.run(t)
	// Block 0 finished after 5 of its source symbols: on to blocks 1 and 2.
	want := append(ids(1, seq(0, 13)...), ids(2, seq(0, 7)...)...)
	if got := sent(pullBlocks(25, wire.Blocks{Low: 1})); !slices.Equal(got, want) {
		t.Fatalf("block 0 finished: sent %v, want %v", got, want)
	}
	// Block 2 finished too: the rest of its source is skipped, and repair
	// is block 1's.
	if got, want := sent(pullBlocks(35, wire.Blocks{Low: 1, Above: 0b1})), ids(1, seq(13, 23)...); !slices.Equal(got, want) {
		t.Fatalf("blocks 0 and 2 finished: sent %v, want %v", got, want)
	}
	if p := s.Stats().Precoded; p != 1 {
		t.Fatalf("%d blocks precoded, want block 1's alone", p)
	}
	// Every block finished, then a stale state: nothing is paid for either.
	before := s.Stats().SymbolsSent
	for _, pkt := range [][]byte{pullBlocks(45, wire.Blocks{Low: 3}), pullBlocks(60, wire.Blocks{})} {
		if got := sent(pkt); len(got) != 0 {
			t.Fatalf("every block finished: sent %v", got)
		}
	}
	sess := s.sessions[key(3000, 1)]
	if st := s.Stats(); st.SymbolsSent != before || sess.sent != sess.granted || len(s.owed) != 0 {
		t.Fatalf("every block finished: %+v, session sent %d of %d", st, sess.sent, sess.granted)
	}
	// A new fetch's Hello: repair of every block again. (The source symbols
	// skipped are not sent after all: the source cursor has passed them.)
	want = nil
	for r := uint32(0); r < 3; r++ {
		want = append(want, [2]uint32{2, 13 + r}, [2]uint32{0, 14 + r}, [2]uint32{1, 23 + r})
	}
	if got := sent(wire.AppendHello(nil, wire.Hello{Flow: 1, SenderCount: 1, Grant: 9})); !slices.Equal(got, want) {
		t.Fatalf("after a new Hello: sent %v, want %v", got, want)
	}
}

// NewServer does no codec work: for a 64 MiB object it makes the views of
// its 65,536 symbols and under 1 MiB besides, where precoding every block
// at once took ~74 MiB of replay arenas. The object itself is never read,
// so its pages need not exist.
func TestNewServerBuildsViewsOnly(t *testing.T) {
	conn := newUDP(t)
	defer conn.Close()
	cfg := DefaultConfig()
	// The first server of a block size derives its code parameters and
	// plans its precode schedule; both are kept for the process.
	if _, err := NewServer(conn, make([]byte, 1<<20), cfg); err != nil {
		t.Fatal(err)
	}
	obj := make([]byte, 64<<20)
	// One P while counting, so that goroutines earlier tests left winding
	// down do not allocate into the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv, err := NewServer(conn, obj, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	views := uint64(srv.enc.Layout().TotalSymbols()) * uint64(unsafe.Sizeof(obj))
	if extra := after.TotalAlloc - before.TotalAlloc - views; extra >= 1<<20 {
		t.Fatalf("NewServer on %d MiB allocated %d bytes beyond its %d bytes of symbol views", len(obj)>>20, extra, views)
	}
	if n := srv.Stats().Precoded; n != 0 {
		t.Fatalf("%d blocks precoded by NewServer", n)
	}
}
