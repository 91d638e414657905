package polyraptor_test

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"polyraptor"
	"polyraptor/internal/harness"
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

// TestFacadeSimulationScales: the simulation the package doc points to
// is sized as the paper's figures are. Its paper scale is the captions
// (k = 10, 10,000 sessions of 4 MiB, incast up to 70 senders), the
// bench scale is smaller, and Figure 1c covers both block sizes.
func TestFacadeSimulationScales(t *testing.T) {
	paperAxis, paper, err := harness.LookupFigureScale("paper")
	if err != nil {
		t.Fatal(err)
	}
	if sc := paper.Fig1.Scale; sc.FatTreeK != 10 || sc.Sessions != 10000 || sc.Bytes != 4<<20 {
		t.Fatalf("paper scale = %+v", sc)
	}
	benchAxis, bench, err := harness.LookupFigureScale("bench")
	if err != nil {
		t.Fatal(err)
	}
	if bench.Fig1.Sessions >= paper.Fig1.Sessions {
		t.Fatal("bench scale not smaller than paper scale")
	}
	if n := paperAxis.Senders[len(paperAxis.Senders)-1]; n != 70 {
		t.Fatalf("paper incast must reach 70 senders: %v", paperAxis.Senders)
	}
	series, err := harness.Figure1c(bench.Incast, benchAxis.Senders[:1], 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, se := range series {
		labels = append(labels, se.Label)
	}
	if want := []string{"RQ 256KB", "TCP 256KB", "RQ 70KB", "TCP 70KB"}; !slices.Equal(labels, want) {
		t.Fatalf("Figure 1c series %q, want both block sizes %q", labels, want)
	}
}
