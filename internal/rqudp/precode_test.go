package rqudp

import (
	"bytes"
	"context"
	"net"
	"runtime"
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
// symbols, then repair round-robin over 38 blocks from block 0, so the
// blocks precoded are the first min(38, repair symbols sent).
func TestPrecodedAfterALossyFetch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBlockK = 8
	obj := randObject(t, 300_000)
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
	sh, err := netshim.New(srv.Addr(), netshim.Config{Seed: 11, Down: netshim.Faults{Loss: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, []net.Addr{sh.Addr()}, 1, cfg)
	if err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("fetch: %v", err)
	}
	srv.Close()
	<-served // every burst the server built is counted now
	layout := srv.enc.Layout()
	sent := srv.Stats()
	repair := sent.SymbolsSent - layout.TotalSymbols()
	if st.Lost == 0 || repair <= 0 {
		t.Fatalf("the network lost %d symbols and the server sent %d repair symbols: no repair to count", st.Lost, repair)
	}
	if want := min(layout.Z(), repair); sent.Precoded != want {
		t.Fatalf("%d repair symbols over %d blocks precoded %d of them, want %d", repair, layout.Z(), sent.Precoded, want)
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
