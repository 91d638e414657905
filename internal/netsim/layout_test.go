package netsim

import (
	"slices"
	"testing"
	"unsafe"
)

// A hop's port state is one cache line: a field added to portHot that
// spills it to a second line fails here, not in a profile.
func TestPortHotIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(portHot{}); n > 64 {
		t.Fatalf("portHot is %d bytes, want at most 64", n)
	}
}

// Packets follow the table: a pruned-empty or removed group's packets
// are freed at the switch, a re-installed group forwards again, and
// nothing is left outstanding after each drain.
func TestMcastForwardingFollowsTable(t *testing.T) {
	n := New(DefaultConfig())
	sw := n.AddSwitch("s")
	src := n.AddHost()
	n.Connect(src, sw)
	recvs := make([]*Host, 3)
	got := make([]int, len(recvs))
	for i := range recvs {
		recvs[i] = n.AddHost()
		n.Connect(sw, recvs[i]) // switch port i+1
		i := i
		recvs[i].Deliver = func(p *Packet) { got[i]++; n.FreePacket(p) }
	}
	send := func(g int32) []int {
		clear(got)
		p := n.AllocPacket()
		p.Kind, p.Size, p.Group = KindData, DataSize, g
		src.Send(p)
		n.Eng.Run()
		if out := n.PacketsOutstanding(); out != 0 {
			t.Fatalf("group %d: %d packets outstanding after the drain", g, out)
		}
		return slices.Clone(got)
	}
	for _, step := range []struct {
		name string
		op   func()
		want []int
	}{
		{"install", func() { sw.AddMcastPort(7, 1); sw.AddMcastPort(7, 3) }, []int{1, 0, 1}},
		{"prune one", func() { sw.RemoveMcastPort(7, 1) }, []int{0, 0, 1}},
		{"prune to empty", func() { sw.RemoveMcastPort(7, 3) }, []int{0, 0, 0}},
		{"remove", func() { sw.RemoveMcastGroup(7) }, []int{0, 0, 0}},
		{"re-install", func() { sw.AddMcastPort(7, 2) }, []int{0, 1, 0}},
		{"re-install after 10,000 groups", func() {
			for g := int32(8); g < 10008; g++ {
				sw.AddMcastPort(g, 1+int(g)%3)
				sw.RemoveMcastGroup(g - 1)
			}
			sw.RemoveMcastGroup(10007)
			sw.AddMcastPort(7, 1)
			sw.AddMcastPort(7, 2)
		}, []int{1, 1, 0}},
	} {
		step.op()
		if c := send(7); !slices.Equal(c, step.want) {
			t.Fatalf("%s: receivers got %v, want %v", step.name, c, step.want)
		}
	}
}
