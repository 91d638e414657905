package rqudp

import (
	"bytes"
	"context"
	"net"
	"testing"

	"polyraptor/internal/wire"
)

// BenchmarkFetch2x1MiB is PolyBench's udp_fetch operation: one 1 MiB
// multi-source fetch from two servers over loopback on a reused
// socket. Beside ns and allocs per fetch it reports the counters the
// socket path is judged by — symbols per send (the mean train), datagrams
// per read and pulls per symbol — and what a fetch has to say about where
// its time went: the share of it spent waiting on the socket and spent in
// the decoder, symbols slid over and re-grants per fetch, the share of
// fetches that received more symbols than the object's source symbols (so
// were sent repair), and the blocks the servers precoded per fetch: their
// servers are fresh, so that is the blocks some fetch was sent repair
// symbols of, over b.N.
func BenchmarkFetch2x1MiB(b *testing.B) {
	obj := make([]byte, 1<<20)
	for i := range obj {
		obj[i] = byte(i * 7)
	}
	cfg := DefaultConfig()
	cfg.Workers = 1
	var remotes []net.Addr
	var srvs []*Server
	for i := 0; i < 2; i++ {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv, err := NewServer(conn, obj, cfg)
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		defer srv.Close()
		remotes, srvs = append(remotes, srv.Addr()), append(srvs, srv)
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	var total FetchStats
	repaired := 0
	b.SetBytes(int64(len(obj)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, st, err := FetchMultiSourceStats(context.Background(), conn, remotes, uint32(i+1), cfg)
		if err != nil || !bytes.Equal(got, obj) {
			b.Fatalf("fetch %d: %v", i, err)
		}
		total.Symbols += st.Symbols
		if st.Symbols > len(obj)/cfg.SymbolSize {
			repaired++
		}
		total.Duplicates += st.Duplicates
		total.Retries += st.Retries
		total.ReadCalls += st.ReadCalls
		total.Datagrams += st.Datagrams
		total.PullsSent += st.PullsSent
		total.SendErrors += st.SendErrors
		total.Lost += st.Lost
		total.Regrants += st.Regrants
		total.Elapsed += st.Elapsed
		total.Idle += st.Idle
		total.Decode += st.Decode
	}
	b.StopTimer()
	if total.Duplicates+total.Retries+total.SendErrors != 0 {
		b.Fatalf("loopback fetch was not clean: %+v", total)
	}
	b.ReportMetric(float64(total.Symbols)/float64(b.N), "symbols/fetch")
	var sent ServerStats
	for _, srv := range srvs {
		st := srv.Stats()
		sent.SendCalls += st.SendCalls
		sent.SymbolsSent += st.SymbolsSent
		sent.SendErrors += st.SendErrors
		sent.Precoded += st.Precoded
	}
	if sent.SendErrors != 0 {
		b.Fatalf("servers: %+v", sent)
	}
	b.ReportMetric(float64(sent.SymbolsSent)/float64(sent.SendCalls), "symbols/send")
	b.ReportMetric(float64(total.Datagrams)/float64(total.ReadCalls), "datagrams/read")
	b.ReportMetric(float64(total.PullsSent)/float64(total.Symbols), "pulls/symbol")
	b.ReportMetric(float64(total.Idle)/float64(total.Elapsed), "idle/elapsed")
	b.ReportMetric(float64(total.Decode)/float64(total.Elapsed), "decode/elapsed")
	b.ReportMetric(float64(total.Lost)/float64(b.N), "lost/fetch")
	b.ReportMetric(float64(total.Regrants)/float64(b.N), "regrants/fetch")
	b.ReportMetric(float64(repaired)/float64(b.N), "repair-fetches/fetch")
	b.ReportMetric(float64(sent.Precoded)/float64(b.N), "precoded/fetch")
}

// BenchmarkFirstRepairBurst is the stall a receiver sees when it first
// needs repair from a fresh server: a 1 MiB object's source symbols are
// granted and sent, then one pull asks for a repair symbol of each of its
// four blocks, and ns/op is the step that answers it. "fresh" precodes
// all four blocks in that burst; "warm" asks a second time, of a server
// whose blocks the first burst precoded.
func BenchmarkFirstRepairBurst(b *testing.B) {
	for _, warm := range []bool{false, true} {
		name := "fresh"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := newScriptedServerWith(b, 1024, 256, 1<<20)
				layout := s.enc.Layout()
				grant, z := uint32(layout.TotalSymbols()), uint32(layout.Z())
				s.conn.push(wire.AppendHello(nil, wire.Hello{Flow: 1, SenderCount: 1, Grant: grant}), 3000)
				s.run(b)
				if warm {
					grant += z
					s.conn.push(pull(1, grant), 3000)
					s.run(b)
				}
				grant += z
				s.conn.push(pull(1, grant), 3000)
				b.StartTimer()
				s.run(b)
			}
		})
	}
}
