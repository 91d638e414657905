package rqudp

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"polyraptor/internal/netshim"
)

func newUDP(t *testing.T) net.PacketConn {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func randObject(t *testing.T, n int) []byte {
	t.Helper()
	obj := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(obj)
	return obj
}

func startServer(t *testing.T, obj []byte, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(newUDP(t), obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestUnicastFetch(t *testing.T) {
	obj := randObject(t, 300_000)
	srv := startServer(t, obj, DefaultConfig())
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("fetched object differs")
	}
}

func TestFetchTinyObject(t *testing.T) {
	obj := []byte("polyraptor")
	srv := startServer(t, obj, DefaultConfig())
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, _, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatalf("got %q", got)
	}
}

func TestFetchMultiBlockObject(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SymbolSize = 512
	cfg.MaxBlockK = 64 // forces many blocks
	obj := randObject(t, 200_000)
	srv := startServer(t, obj, cfg)
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("multi-block fetch corrupted object")
	}
}

func TestMultiSourceFetch(t *testing.T) {
	obj := randObject(t, 400_000)
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
	got, _, err := FetchMultiSourceStats(ctx, conn, remotes, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("multi-source fetch corrupted object")
	}
}

// A quarter of the symbols lost on the way: the window slides over the
// gaps and the fetch never stalls.
func TestFetchSurvivesSymbolLoss(t *testing.T) {
	obj := randObject(t, 150_000)
	cfg := DefaultConfig()
	remotes, _, _ := shimmedServers(t, obj, cfg, 1, shims[0].wrap, netshim.Config{Seed: 5, Down: netshim.Faults{Loss: 0.25}})
	conn := newUDP(t)
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, st, err := FetchMultiSourceStats(ctx, conn, remotes, 9, cfg)
	if err != nil {
		t.Fatalf("fetch under 25%% loss failed: %v", err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("fetch under loss corrupted object")
	}
	if st.Retries != 0 || st.Lost == 0 {
		t.Fatalf("%d stall periods, %d symbols slid over: %+v", st.Retries, st.Lost, st)
	}
}

func TestConcurrentFetchers(t *testing.T) {
	obj := randObject(t, 100_000)
	srv := startServer(t, obj, DefaultConfig())
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			got, _, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, uint32(i), DefaultConfig())
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, obj) {
				errs[i] = context.DeadlineExceeded
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetcher %d: %v", i, err)
		}
	}
}

func TestFetchContextCancellation(t *testing.T) {
	// No server: the fetch must give up when the context dies, not
	// spin forever.
	conn := newUDP(t)
	defer conn.Close()
	dead, _ := net.ResolveUDPAddr("udp", "127.0.0.1:1") // nothing listens
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, _, err := FetchMultiSourceStats(ctx, conn, []net.Addr{dead}, 1, DefaultConfig())
	if err == nil {
		t.Fatal("fetch from dead address succeeded?!")
	}
}

func TestFetchStallAbort(t *testing.T) {
	conn := newUDP(t)
	defer conn.Close()
	dead, _ := net.ResolveUDPAddr("udp", "127.0.0.1:1")
	cfg := DefaultConfig()
	cfg.RetryInterval = 10 * time.Millisecond
	cfg.MaxRetries = 3
	ctx := context.Background()
	start := time.Now()
	_, _, err := FetchMultiSourceStats(ctx, conn, []net.Addr{dead}, 1, cfg)
	if err == nil {
		t.Fatal("stalled fetch did not abort")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stall abort took far too long")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SymbolSize: 0, MaxBlockK: 1, RetryInterval: 1, MaxRetries: 1},
		{SymbolSize: 1, MaxBlockK: 0, RetryInterval: 1, MaxRetries: 1},
		{SymbolSize: 1, MaxBlockK: 1, RetryInterval: 0, MaxRetries: 1},
		{SymbolSize: 1, MaxBlockK: 1, RetryInterval: 1, MaxRetries: 0},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	if err := DefaultConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if _, err := NewServer(nil, nil, Config{}); err == nil {
		t.Fatal("NewServer with zero config accepted")
	}
}

func TestServerIgnoresGarbage(t *testing.T) {
	obj := randObject(t, 10_000)
	srv := startServer(t, obj, DefaultConfig())
	conn := newUDP(t)
	defer conn.Close()
	// Garbage, bad magic, truncated — none of these may crash Serve.
	conn.WriteTo([]byte("not-a-polyraptor-packet"), srv.Addr())
	conn.WriteTo([]byte{0xA7}, srv.Addr())
	conn.WriteTo(nil, srv.Addr())
	// The server must still serve a normal fetch afterwards.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	got, _, err := FetchMultiSourceStats(ctx, conn, []net.Addr{srv.Addr()}, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("fetch after garbage corrupted")
	}
}
