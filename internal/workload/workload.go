// Package workload generates the paper's traffic patterns: Poisson
// session arrivals (λ = 2560/s), a permutation traffic matrix for
// session scheduling, randomly selected out-of-rack replica sets, a
// 20% background-traffic mix, and the synchronized incast pattern of
// Figure 1c. All draws are deterministic per seed.
package workload

import (
	"math"
	"math/rand"

	"polyraptor/internal/sim"
)

// Kind distinguishes foreground pattern sessions from background
// unicast filler.
type Kind uint8

const (
	// Foreground sessions follow the experiment's pattern (multicast
	// replication, multi-source fetch, or plain unicast) and are the
	// sessions the figures report.
	Foreground Kind = iota
	// Background sessions are plain unicast filler (20% of sessions).
	Background
)

// Session is one scheduled transfer.
type Session struct {
	// ID is dense, 0..N-1, in arrival order.
	ID int
	// Kind is foreground or background.
	Kind Kind
	// Start is the Poisson arrival time.
	Start sim.Time
	// Client is the host that initiates: the writer in one-to-many
	// runs, the reader in many-to-one runs.
	Client int
	// Peers are the other endpoints: replica servers (out-of-rack) for
	// foreground sessions, a single random destination for background.
	Peers []int
	// Bytes is the object size.
	Bytes int64
}

// RackView is what the generator needs to know about the topology:
// enough to pick peers outside the client's rack (the paper places the
// replica servers "randomly ... outside the client's rack").
type RackView interface {
	NumHosts() int
	SameRack(a, b int) bool
}

// Config parametrises the generator; defaults follow Figure 1a/1b.
type Config struct {
	// Sessions is the total session count (paper: 10,000).
	Sessions int
	// Lambda is the Poisson arrival rate in sessions per second
	// (paper: 2560).
	Lambda float64
	// Bytes is the foreground object size (paper: 4 MB).
	Bytes int64
	// BackgroundBytes is the background object size (the paper does
	// not give one; every experiment assumes it equals Bytes).
	BackgroundBytes int64
	// BackgroundFrac is the fraction of sessions that are background
	// (paper: 0.20).
	BackgroundFrac float64
	// Replicas is the number of peers per foreground session (paper:
	// 1 or 3).
	Replicas int
	// Sizes, when non-nil, draws each foreground session's size from
	// an empirical distribution instead of the fixed Bytes (the
	// paper's "different workloads" extension).
	Sizes *SizeDist
	// Seed drives all random choices.
	Seed int64
}

// DefaultConfig returns the Figure 1a/1b parameters at paper scale.
func DefaultConfig() Config {
	return Config{
		Sessions:        10000,
		Lambda:          2560,
		Bytes:           4 << 20,
		BackgroundBytes: 4 << 20,
		BackgroundFrac:  0.20,
		Replicas:        3,
		Seed:            1,
	}
}

// Generate produces the session schedule. Clients are drawn from a
// repeatedly reshuffled permutation of the hosts (the paper's
// "permutation traffic matrix": every host is a client once per round,
// so load spreads evenly); replica peers are drawn uniformly among
// hosts outside the client's rack, distinct within a session.
func Generate(cfg Config, racks RackView) []Session {
	arrivals := sim.RNG(cfg.Seed, "arrivals")
	perm := sim.RNG(cfg.Seed, "permutation")
	peers := sim.RNG(cfg.Seed, "peers")
	kindRng := sim.RNG(cfg.Seed, "kind")
	var sizeRng *rand.Rand
	if cfg.Sizes != nil {
		sizeRng = sim.RNG(cfg.Seed, "sizes")
	}

	n := racks.NumHosts()
	order := perm.Perm(n)
	next := 0
	clientOf := func() int {
		if next == len(order) {
			order = perm.Perm(n)
			next = 0
		}
		c := order[next]
		next++
		return c
	}

	var t sim.Time
	out := make([]Session, 0, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		// Exponential inter-arrival with rate lambda.
		gap := -math.Log(1-arrivals.Float64()) / cfg.Lambda
		t += sim.Time(gap * 1e9)
		s := Session{ID: i, Start: t, Client: clientOf()}
		if kindRng.Float64() < cfg.BackgroundFrac {
			s.Kind = Background
			s.Bytes = cfg.BackgroundBytes
			s.Peers = []int{randomPeerOutsideRack(peers, racks, s.Client, nil)}
		} else {
			s.Kind = Foreground
			s.Bytes = cfg.Bytes
			if cfg.Sizes != nil {
				s.Bytes = cfg.Sizes.Sample(sizeRng)
			}
			s.Peers = pickReplicas(peers, racks, s.Client, cfg.Replicas)
		}
		out = append(out, s)
	}
	return out
}

// pickReplicas draws `count` distinct hosts outside the client's rack.
func pickReplicas(rng *rand.Rand, racks RackView, client, count int) []int {
	picked := make([]int, 0, count)
	for len(picked) < count {
		picked = append(picked, randomPeerOutsideRack(rng, racks, client, picked))
	}
	return picked
}

func randomPeerOutsideRack(rng *rand.Rand, racks RackView, client int, exclude []int) int {
	n := racks.NumHosts()
	for {
		p := rng.Intn(n)
		if p == client || racks.SameRack(client, p) {
			continue
		}
		dup := false
		for _, e := range exclude {
			if e == p {
				dup = true
				break
			}
		}
		if !dup {
			return p
		}
	}
}

// IncastConfig parametrises Figure 1c: N servers synchronously send a
// block each to one client.
type IncastConfig struct {
	// Senders is the number of synchronized senders.
	Senders int
	// BytesPerSender is the block each sender transmits (paper: 256 KB
	// and 70 KB series).
	BytesPerSender int64
	// Seed drives host selection.
	Seed int64
}

// Incast is one synchronized scenario instance.
type Incast struct {
	Client  int
	Senders []int
	Bytes   int64
}

// GenerateIncast picks a random client and N distinct senders outside
// its rack, all starting at t=0 (synchronized short flows).
func GenerateIncast(cfg IncastConfig, racks RackView) Incast {
	rng := sim.RNG(cfg.Seed, "incast")
	client := rng.Intn(racks.NumHosts())
	return Incast{
		Client:  client,
		Senders: pickReplicas(rng, racks, client, cfg.Senders),
		Bytes:   cfg.BytesPerSender,
	}
}
