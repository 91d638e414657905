package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"polyraptor"
	"polyraptor/internal/wire"
)

const (
	udpServers = 2
	// fetchTimeout aborts a fetch that the transport's own retry budget
	// has not already failed.
	fetchTimeout = 30 * time.Second
)

// symRef addresses one encoding symbol.
type symRef struct {
	sbn int
	esi uint32
}

// timedConn wraps the net.PacketConn handed to rqudp on traced iterations:
// it times every read and write from outside the transport. Counters are
// atomic because the server side runs on its own goroutine.
type timedConn struct {
	net.PacketConn
	readNs, writeNs, reads, writes atomic.Int64
	// stream, on the client side, collects the symbols of the current
	// fetch in arrival order; the codec-ceiling probe replays them.
	record bool
	stream []symRef
}

func (c *timedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	t0 := time.Now()
	n, addr, err := c.PacketConn.ReadFrom(p)
	c.readNs.Add(time.Since(t0).Nanoseconds())
	c.reads.Add(1)
	if c.record && err == nil {
		if hdr, body, err := wire.ParseHeader(p[:n]); err == nil && hdr.Type == wire.MsgData {
			if d, err := wire.ParseData(hdr.Flow, body); err == nil {
				c.stream = append(c.stream, symRef{int(d.SBN), d.ESI})
			}
		}
	}
	return n, addr, err
}

func (c *timedConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	t0 := time.Now()
	n, err := c.PacketConn.WriteTo(p, addr)
	c.writeNs.Add(time.Since(t0).Nanoseconds())
	c.writes.Add(1)
	return n, err
}

// connTimes is a snapshot of one or more timedConns.
type connTimes struct{ readNs, writeNs, reads, writes int64 }

func snapshot(conns ...*timedConn) connTimes {
	var s connTimes
	for _, c := range conns {
		s.readNs += c.readNs.Load()
		s.writeNs += c.writeNs.Load()
		s.reads += c.reads.Load()
		s.writes += c.writes.Load()
	}
	return s
}

func (a connTimes) sub(b connTimes) connTimes {
	return connTimes{a.readNs - b.readNs, a.writeNs - b.writeNs, a.reads - b.reads, a.writes - b.writes}
}

func (a connTimes) add(b connTimes) connTimes {
	return connTimes{a.readNs + b.readNs, a.writeNs + b.writeNs, a.reads + b.reads, a.writes + b.writes}
}

// udpWorkload is udp_fetch: sequential multi-source fetches of one object
// from two servers over the host's loopback interface — not a real link.
type udpWorkload struct {
	sc   scale
	seed int64
	// wrapClient, when set, wraps the fetcher's socket; the tests use it to
	// corrupt a datagram and show that a wrong byte fails the run.
	wrapClient func(net.PacketConn) net.PacketConn

	// Kept for the codec-ceiling probe: the object of the last iteration
	// and the symbols of its last traced fetch, in arrival order.
	object []byte
	stream []symRef
}

// udpEnv is what set-up leaves behind: the object, two servers serving it
// on their own goroutines and the fetcher's socket.
type udpEnv struct {
	object      []byte
	remotes     []net.Addr
	conn        net.PacketConn // the fetcher's socket, wrapped as configured
	client      *timedConn     // its timing wrapper; nil unless traced
	serverConns []*timedConn   // likewise for the servers
	servers     []*polyraptor.Server
	serving     sync.WaitGroup
	serveErr    [udpServers]error
	setup       time.Duration
	newServer   time.Duration // the part of setup spent in NewServer
}

// stop closes the servers, waits for their goroutines — after which
// serveErr may be read — and closes the fetcher's socket. It may be called
// more than once.
func (e *udpEnv) stop() {
	for _, s := range e.servers {
		s.Close()
	}
	e.serving.Wait()
	if e.conn != nil {
		e.conn.Close()
	}
}

// start is the set-up of one iteration: the object, the sockets, the
// servers. The caller stops the environment, also when start fails.
func (w *udpWorkload) start(variant int, cfg polyraptor.TransportConfig, traced bool) (*udpEnv, error) {
	begin := time.Now()
	e := &udpEnv{object: make([]byte, w.sc.fetchBytes)}
	fillRandom(rand.New(rand.NewSource(subSeed(w.seed, variant))), e.object)
	listen := func() (net.PacketConn, *timedConn, error) {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil || !traced {
			return conn, nil, err
		}
		tc := &timedConn{PacketConn: conn}
		return tc, tc, nil
	}
	for i := 0; i < udpServers; i++ {
		conn, tc, err := listen()
		if err != nil {
			return e, err
		}
		t0 := time.Now()
		srv, err := polyraptor.NewServer(conn, e.object, cfg)
		e.newServer += time.Since(t0)
		if err != nil {
			conn.Close()
			return e, err
		}
		e.servers = append(e.servers, srv)
		e.remotes = append(e.remotes, srv.Addr())
		if tc != nil {
			e.serverConns = append(e.serverConns, tc)
		}
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			e.serveErr[i] = srv.Serve()
		}()
	}
	conn, client, err := listen()
	if err != nil {
		return e, err
	}
	e.conn, e.client = conn, client
	if w.wrapClient != nil {
		e.conn = w.wrapClient(conn)
	}
	e.setup = time.Since(begin)
	return e, nil
}

func (w *udpWorkload) setUp(variant int) (float64, error) {
	cfg := polyraptor.DefaultTransportConfig()
	cfg.Workers = 1
	e, err := w.start(variant, cfg, false)
	e.stop()
	return e.setup.Seconds(), err
}

func (w *udpWorkload) iterate(variant int, tr *tracer) (iteration, error) {
	var it iteration
	cfg := polyraptor.DefaultTransportConfig()
	cfg.Workers = 1
	begin := time.Now()
	e, err := w.start(variant, cfg, tr != nil)
	defer e.stop()
	if err != nil {
		return it, err
	}
	object, conn, client, serverConns, remotes := e.object, e.conn, e.client, e.serverConns, e.remotes
	layout, err := polyraptor.NewBlockLayout(int64(len(object)), cfg.SymbolSize, cfg.MaxBlockK)
	if err != nil {
		return it, err
	}
	it.setupS = e.setup.Seconds()
	setupSpan := tr.add("setup", 0, 0, begin, e.setup, 0)
	tr.add("rqudp.new_server", setupSpan, 0, begin, e.newServer, udpServers)
	newServer := e.newServer

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	runStart := time.Now()
	runSpan := tr.add("run", 0, 0, runStart, 0, 0)
	var fetchS float64
	var symbols, duplicates, retries int
	var clientIO, serverIO connTimes
	for i := 0; i < w.sc.fetches; i++ {
		req := i + 1
		var c0, s0 connTimes
		if tr != nil {
			client.record, client.stream = true, client.stream[:0]
			c0, s0 = snapshot(client), snapshot(serverConns...)
		}
		ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
		t0 := time.Now()
		got, st, err := polyraptor.FetchMultiSourceStats(ctx, conn, remotes, uint32(req), cfg)
		d := time.Since(t0)
		cancel()
		fetchS += d.Seconds()
		if tr != nil {
			c, s := snapshot(client).sub(c0), snapshot(serverConns...).sub(s0)
			clientIO, serverIO = clientIO.add(c), serverIO.add(s)
			fetch := tr.add("rqudp.fetch", runSpan, req, t0, d, 0)
			tr.add("conn.read", fetch, req, t0, time.Duration(c.readNs), c.reads)
			tr.add("conn.write", fetch, req, t0, time.Duration(c.writeNs), c.writes)
			for _, sp := range []struct {
				name  string
				ns, n int64
			}{{"server conn.read", s.readNs, s.reads}, {"server conn.write", s.writeNs, s.writes}} {
				id := tr.add(sp.name, fetch, req, t0, time.Duration(sp.ns), sp.n)
				tr.spans[id-1].Track = "server"
			}
		}
		t0 = time.Now()
		ok := err == nil && bytes.Equal(got, object)
		tr.add("bench.verify", runSpan, req, t0, time.Since(t0), 0)
		it.attempted++
		if !ok {
			it.failed++
			continue
		}
		it.xferMs = append(it.xferMs, d.Seconds()*1e3)
		symbols += st.Symbols
		duplicates += st.Duplicates
		retries += st.Retries
	}
	run := time.Since(runStart)
	it.runS = run.Seconds()
	tr.setDur(runSpan, run)
	runtime.ReadMemStats(&ms)
	e.stop() // the Serve goroutines have returned: their errors can be read
	for i, err := range e.serveErr {
		if err != nil {
			return it, fmt.Errorf("server %d: %w", i, err)
		}
	}

	var goodputs []float64
	for _, latMs := range it.xferMs {
		goodputs = append(goodputs, float64(len(object))*8/(latMs/1e3)/1e6)
	}
	it.goodputMbps = mean(goodputs)
	sourceSymbols := float64(len(it.xferMs) * layout.TotalSymbols())
	it.layer = map[string]float64{
		"rqudp.goodput_mb_s":      float64(len(it.xferMs)*len(object)) / fetchS / 1e6,
		"rqudp.symbol_overhead":   ratio(float64(symbols)-sourceSymbols, sourceSymbols),
		"rqudp.duplicates":        float64(duplicates),
		"rqudp.retries":           float64(retries),
		"rqudp.allocs_per_symbol": ratio(float64(ms.Mallocs-mallocs), float64(symbols)),
		"rqudp.new_server_s":      newServer.Seconds(),
		auxDataPkts:               float64(symbols + duplicates),
	}
	if tr != nil {
		it.layer["rqudp.client_read_wait_s"] = float64(clientIO.readNs) / 1e9
		it.layer["rqudp.client_write_s"] = float64(clientIO.writeNs) / 1e9
		it.layer["rqudp.client_cpu_s"] = fetchS - float64(clientIO.readNs+clientIO.writeNs)/1e9
		it.layer["rqudp.server_read_wait_s"] = float64(serverIO.readNs) / 1e9
		it.layer["rqudp.server_write_s"] = float64(serverIO.writeNs) / 1e9
		it.layer["rqudp.pkts_per_symbol"] = ratio(float64(clientIO.reads+clientIO.writes), float64(symbols))
		w.stream = append(w.stream[:0], client.stream...)
	}
	w.object = object
	return it, nil
}

// auxDataPkts is a ledger entry that is not a metric: the data packets the
// fetcher received, left for the marshalling probe.
const auxDataPkts = "aux.data_pkts"

// probes measures packet marshalling alone and the codec ceiling: how fast
// the decoder alone turns the very symbol stream of a fetch back into the
// object, with the fetcher's call pattern and no sockets.
func (w *udpWorkload) probes(layer map[string]float64, runS float64, _ io.Writer) (*estimate, error) {
	payload := make([]byte, 1024)
	var pkt []byte
	const n = 1_000_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pkt = wire.AppendData(pkt[:0], wire.Data{Flow: 1, SBN: 2, ESI: uint32(i), Payload: payload})
		hdr, body, err := wire.ParseHeader(pkt)
		if err != nil {
			return nil, err
		}
		if _, err := wire.ParseData(hdr.Flow, body); err != nil {
			return nil, err
		}
	}
	roundtripNs := float64(time.Since(t0).Nanoseconds()) / n
	layer["wire.data_roundtrip_ns"] = roundtripNs
	layer["wire.marshal_share_est"] = roundtripNs * layer[auxDataPkts] / 1e9 / runS

	cfg := polyraptor.DefaultTransportConfig()
	enc, err := polyraptor.EncodeObjectWorkers(w.object, cfg.SymbolSize, cfg.MaxBlockK, 1)
	if err != nil {
		return nil, err
	}
	syms := make([][]byte, len(w.stream))
	for i, r := range w.stream {
		syms[i] = enc.Symbol(r.sbn, r.esi)
	}
	var times []float64
	for rep := 0; rep < 21; rep++ {
		t0 := time.Now()
		dec, err := polyraptor.NewObjectDecoder(enc.Layout())
		if err != nil {
			return nil, err
		}
		dec.SetWorkers(1)
		done := false
		for i, r := range w.stream {
			if _, err := dec.AddSymbol(r.sbn, r.esi, syms[i]); err != nil {
				return nil, err
			}
			if done = dec.TryDecode(); done {
				break
			}
		}
		if !done {
			return nil, fmt.Errorf("replaying the %d symbols of a fetch did not decode", len(w.stream))
		}
		got, err := dec.Object()
		if err != nil || !bytes.Equal(got, w.object) {
			return nil, fmt.Errorf("replayed fetch decoded to different bytes (%v)", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	codecMB := float64(len(w.object)) / median(times) / 1e6
	layer["rqudp.goodput_vs_codec"] = layer["rqudp.goodput_mb_s"] / codecMB
	return nil, nil
}
