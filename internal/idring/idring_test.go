package idring

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The table answers as a map would, while IDs climb past 12,000, the
// live ones form a sliding window, and stragglers stay live far behind
// it (which makes the table grow instead of wrap onto them). Values are
// slices, as in a switch's multicast table: a freed slot's slice is
// reused by the next ID that claims the slot, and must read empty after
// the reset the caller does before Free.
func TestTableMatchesMap(t *testing.T) {
	var tab Table[[]int]
	m := map[int32][]int{}
	rng := rand.New(rand.NewSource(7))
	check := func(lo, hi int32, step string) {
		t.Helper()
		for id := lo; id < hi; id++ {
			got, want := tab.Get(id), m[id]
			if _, live := m[id]; live != (got != nil) || got != nil && !slices.Equal(*got, want) {
				t.Fatalf("%s: id %d reads %v, the map says %v (live %v)", step, id, got, want, live)
			}
		}
	}
	const ids, window = 12000, 40
	var live []int32
	for id := int32(0); id < ids; id++ {
		v := tab.Claim(id)
		if len(*v) != 0 {
			t.Fatalf("id %d claimed a slot holding %v, want it reset", id, *v)
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			*v = append(*v, rng.Intn(8))
		}
		m[id] = slices.Clone(*v)
		if again := tab.Claim(id); again != v {
			t.Fatalf("a second claim of live id %d moved its value", id)
		}
		live = append(live, id)
		if id%97 == 0 { // a live value emptied, the ID kept
			u := live[rng.Intn(len(live))]
			*tab.Get(u) = (*tab.Get(u))[:0]
			m[u] = []int{}
		}
		if len(live) > window {
			// Free a random live ID, but let every 1,000th one
			// straggle for a while.
			i := rng.Intn(len(live) - 1)
			if live[i]%1000 == 0 && id-live[i] < 3000 {
				i = len(live) - 2
			}
			u := live[i]
			*tab.Get(u) = (*tab.Get(u))[:0]
			tab.Free(u)
			tab.Free(u) // a second free is a no-op
			delete(m, u)
			live = slices.Delete(live, i, i+1)
		}
		if id%1000 == 999 {
			check(0, id+64, "sliding window")
		}
	}
	if n := tab.Len(); n > 8192 {
		t.Fatalf("table holds %d slots for %d live IDs", n, len(live))
	}
	if tab.Get(-1) != nil {
		t.Fatal("a negative ID reads live")
	}
	tab.Free(-1)
	// Re-claim an ID used and freed long ago: it starts from nothing.
	*tab.Claim(5) = append(*tab.Claim(5), 3, 3, 1)
	m[5] = []int{3, 3, 1}
	check(0, ids+64, "re-claim")
}

// A table's length follows the span of its live IDs, whatever their
// number: it stays under twice the widest span it has held (newest
// live ID minus oldest) and at least the first allocation. Sessions
// arrive as a Poisson process, as in the paper's fig 1a, and live for an
// exponential time; a tail of them lives a hundred times as long and
// widens the span.
func TestTableLengthFollowsLiveSpan(t *testing.T) {
	for _, c := range []struct {
		name    string
		mean    float64 // mean lifetime, in mean inter-arrival times
		slowPer int     // every slowPer-th session lives 100x as long; 0: none
	}{
		{"exponential", 20, 0},
		{"exponential long", 300, 0},
		{"stragglers", 20, 50},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var tab Table[int]
			ends := map[int32]float64{} // live ID -> departure time
			now, maxSpan, maxLive := 0.0, int32(0), 0
			for id := int32(0); id < 20000; id++ {
				now += rng.ExpFloat64()
				for u, end := range ends {
					if end <= now {
						tab.Free(u)
						delete(ends, u)
					}
				}
				life := c.mean * rng.ExpFloat64()
				if c.slowPer > 0 && int(id)%c.slowPer == 0 {
					life *= 100
				}
				ends[id] = now + life
				*tab.Claim(id) = int(id)
				oldest := id
				for u := range ends {
					oldest = min(oldest, u)
				}
				maxSpan = max(maxSpan, id-oldest)
				maxLive = max(maxLive, len(ends))
			}
			for u := range ends {
				if v := tab.Get(u); v == nil || *v != int(u) {
					t.Fatalf("live id %d reads %v", u, v)
				}
			}
			bound := max(minLen, 2*int(maxSpan))
			if n := tab.Len(); n > bound {
				t.Fatalf("table holds %d slots; the widest live span was %d, so at most %d", n, maxSpan, bound)
			}
			t.Logf("%d slots, widest live span %d, most live at once %d (%.1f slots per live ID)",
				tab.Len(), maxSpan, maxLive, float64(tab.Len())/math.Max(1, float64(maxLive)))
		})
	}
}
