package polyraptor_test

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"polyraptor"
)

func TestFacadeCodecRoundTrip(t *testing.T) {
	data := make([]byte, 50_000)
	rand.New(rand.NewSource(1)).Read(data)
	enc, err := polyraptor.EncodeObject(data, 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := polyraptor.NewObjectDecoder(enc.Layout())
	if err != nil {
		t.Fatal(err)
	}
	for sbn, k := range enc.Layout().K {
		for i := 0; i < k; i++ {
			if _, err := dec.AddSymbol(sbn, uint32(i), enc.Symbol(sbn, uint32(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !dec.TryDecode() {
		t.Fatal("decode failed with all source symbols")
	}
	got, err := dec.Object()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("facade round trip corrupted data")
	}
}

func TestFacadeLayoutHelpers(t *testing.T) {
	layout, err := polyraptor.NewBlockLayout(10_000, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	if layout.Z() != 3 {
		t.Fatalf("Z = %d", layout.Z())
	}
	if p := polyraptor.DecodeFailureProb(0); p != 1e-2 {
		t.Fatalf("DecodeFailureProb(0) = %v", p)
	}
}

func TestFacadeUDPTransfer(t *testing.T) {
	obj := make([]byte, 120_000)
	rand.New(rand.NewSource(2)).Read(obj)
	srvConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := polyraptor.NewServer(srvConn, obj, polyraptor.DefaultTransportConfig())
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := polyraptor.Fetch(ctx, conn, srv.Addr(), 1, polyraptor.DefaultTransportConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("facade UDP fetch corrupted object")
	}
}

func TestFacadeSimulationScales(t *testing.T) {
	paper := polyraptor.PaperScale()
	if paper.FatTreeK != 10 || paper.Sessions != 10000 || paper.Bytes != 4<<20 {
		t.Fatalf("paper scale = %+v", paper)
	}
	bench := polyraptor.BenchScale()
	if bench.Sessions >= paper.Sessions {
		t.Fatal("bench scale not smaller than paper scale")
	}
	opt := polyraptor.DefaultIncastOptions()
	if opt.SenderCounts[len(opt.SenderCounts)-1] != 70 {
		t.Fatalf("incast default must reach 70 senders: %v", opt.SenderCounts)
	}
	if len(opt.BytesPerSender) != 2 {
		t.Fatal("incast default must cover both block sizes")
	}
}

func TestFacadeFigure1cTiny(t *testing.T) {
	opt := polyraptor.IncastOptions{
		FatTreeK:       4,
		SenderCounts:   []int{2, 6},
		BytesPerSender: []int64{70 << 10},
		Repetitions:    2,
		Seed:           1,
		Trimming:       true,
	}
	series, err := polyraptor.Figure1c(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Y) != 2 {
			t.Fatalf("%s: %d points", s.Label, len(s.Y))
		}
	}
}

// TestFacadeFigure1cRejectsImpossibleFanIn: a k=4 fabric has 14 hosts
// outside any rack; asking for 15 senders used to spin the sender
// picker forever and must now be an error.
func TestFacadeFigure1cRejectsImpossibleFanIn(t *testing.T) {
	opt := polyraptor.IncastOptions{
		FatTreeK: 4, SenderCounts: []int{15}, BytesPerSender: []int64{70 << 10},
		Repetitions: 1, Seed: 1, Trimming: true,
	}
	if _, err := polyraptor.Figure1c(opt); err == nil {
		t.Fatal("Figure1c accepted 15 senders on a k=4 fabric")
	}
	if _, err := polyraptor.Figure1a(polyraptor.SimScale{FatTreeK: 3, Sessions: 10, Bytes: 1 << 10, LoadFactor: 0.3}, 4); err == nil {
		t.Fatal("Figure1a accepted an odd arity")
	}
}
