package polyraptor

import (
	"bytes"
	"math/rand"
	"testing"

	"polyraptor/internal/netsim"
	"polyraptor/internal/raptorq"
	"polyraptor/internal/topology"
)

// Cross-layer integration: the protocol simulator models symbols by
// ESI only, so these tests replay the simulator's *actual delivered
// symbol pattern* (which ESIs survived trimming, from which senders,
// in which order) into the real RaptorQ codec and assert the object
// decodes bit-exactly. This validates that the protocol and the codec
// agree about what a "useful symbol" is — the contract the whole
// design rests on.

// capture records delivered full-symbol ESIs at a host.
func capture(host *netsim.Host) *[]int64 {
	esis := &[]int64{}
	prev := host.Deliver
	host.Deliver = func(p *netsim.Packet) {
		if p.Kind == netsim.KindData && !p.Trimmed {
			*esis = append(*esis, p.Seq)
		}
		if prev != nil {
			prev(p)
		}
	}
	return esis
}

// replay feeds the first `limit` captured ESIs' real symbols into a
// real decoder and returns whether decode succeeds with the data
// intact.
func replay(t *testing.T, object []byte, symSize int, esis []int64, limit int) bool {
	t.Helper()
	k := (len(object) + symSize - 1) / symSize
	src := make([][]byte, k)
	for i := range src {
		sym := make([]byte, symSize)
		copy(sym, object[min(i*symSize, len(object)):min((i+1)*symSize, len(object))])
		src[i] = sym
	}
	enc, err := raptorq.NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := raptorq.NewDecoder(k, symSize)
	if err != nil {
		t.Fatal(err)
	}
	if limit > len(esis) {
		limit = len(esis)
	}
	for _, esi := range esis[:limit] {
		dec.AddSymbol(uint32(esi), enc.Symbol(uint32(esi)))
	}
	out, err := dec.Decode()
	if err != nil {
		return false
	}
	joined := make([]byte, 0, k*symSize)
	for _, s := range out {
		joined = append(joined, s...)
	}
	return bytes.Equal(joined[:len(object)], object)
}

func TestRealCodecDecodesSimulatedUnicastDelivery(t *testing.T) {
	st := topology.NewStar(2, netsim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.SymbolPayload = 256 // keep K small for the real codec
	sys := NewSystem(st.Net, cfg, 1)
	object := make([]byte, 40_000)
	rand.New(rand.NewSource(4)).Read(object)

	// capture chains in front of the agent's deliver installed by
	// NewSystem, so the protocol still runs normally.
	esis := capture(st.Hosts[1])
	var done []CompletionEvent
	sys.StartUnicast(0, 1, int64(len(object)), collect(&done))
	drain(t, sys)
	if len(done) != 1 {
		t.Fatal("transfer did not complete")
	}
	// The simulator declared completion after done[0].Symbols distinct
	// symbols; the real codec must decode from that same prefix.
	if !replay(t, object, 256, *esis, done[0].Symbols) {
		t.Fatalf("real codec failed on the simulator's delivered set (%d symbols)", done[0].Symbols)
	}
	assertNoOpenSessions(t, sys)
}

func TestRealCodecDecodesSimulatedIncastDeliveryWithTrims(t *testing.T) {
	// Heavy incast forces trimming: many source symbols are lost and
	// replaced by repair symbols. The delivered pattern must still be
	// decodable by the real codec.
	cfg := netsim.DefaultConfig()
	cfg.DataQueueCap = 2 // aggressive trimming
	st := topology.NewStar(5, cfg)
	pcfg := DefaultConfig()
	pcfg.SymbolPayload = 256
	sys := NewSystem(st.Net, pcfg, 2)

	object := make([]byte, 30_000)
	rand.New(rand.NewSource(5)).Read(object)

	// Track per-flow delivery at the aggregator, chaining in front of
	// the agent's deliver.
	perFlow := map[int32][]int64{}
	agentDeliver := st.Hosts[0].Deliver
	st.Hosts[0].Deliver = func(p *netsim.Packet) {
		if p.Kind == netsim.KindData && !p.Trimmed {
			perFlow[p.Flow] = append(perFlow[p.Flow], p.Seq)
		}
		agentDeliver(p)
	}

	var done []CompletionEvent
	flows := map[int32]int{}
	for s := 1; s <= 4; s++ {
		f := sys.StartUnicast(s, 0, int64(len(object)), collect(&done))
		flows[f] = s
	}
	drain(t, sys)
	if len(done) != 4 {
		t.Fatalf("%d/4 sessions completed", len(done))
	}
	trims := 0
	for _, ev := range done {
		trims += ev.Trims
	}
	if trims == 0 {
		t.Fatal("incast with dataCap=2 produced no trims; test is vacuous")
	}
	for _, ev := range done {
		esis := perFlow[ev.Flow]
		if !replay(t, object, 256, esis, ev.Symbols) {
			t.Fatalf("flow %d: real codec failed on delivered set (%d symbols, %d trims)",
				ev.Flow, ev.Symbols, ev.Trims)
		}
	}
	assertNoOpenSessions(t, sys)
}

func TestRealCodecDecodesMultiSourceDelivery(t *testing.T) {
	// Multi-source partitioning: three senders' disjoint ESI schedules
	// interleave at the receiver; the union must decode.
	st := topology.NewStar(4, netsim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.SymbolPayload = 256
	sys := NewSystem(st.Net, cfg, 3)
	object := make([]byte, 50_000)
	rand.New(rand.NewSource(6)).Read(object)

	esis := capture(st.Hosts[0])
	var done []CompletionEvent
	sys.StartMultiSource([]int{1, 2, 3}, 0, int64(len(object)), collect(&done))
	drain(t, sys)
	if len(done) != 1 {
		t.Fatal("multi-source transfer did not complete")
	}
	if !replay(t, object, 256, *esis, done[0].Symbols) {
		t.Fatalf("real codec failed on multi-source delivered set (%d symbols)", done[0].Symbols)
	}
	assertNoOpenSessions(t, sys)
}
