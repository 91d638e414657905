package workload

import (
	"fmt"

	"polyraptor/internal/sim"
)

// ShuffleConfig parametrises the many-to-many shuffle pattern: every
// mapper holds one distinct partition per reducer and all M×R
// transfers start synchronously — the stress case SCDP evaluates for
// rateless transport, and the pattern RepFlow's multipath FCT baseline
// targets.
type ShuffleConfig struct {
	// Mappers and Reducers are the set sizes; hosts are drawn
	// distinctly, so Mappers+Reducers must not exceed the fabric.
	Mappers, Reducers int
	// BytesPerPair is the mean partition size. With Skew = 0 every
	// pair is exactly this size.
	BytesPerPair int64
	// Skew spreads partition sizes across reducers by Zipf popularity
	// (a few hot reducers receive most of the data); pair sizes are
	// scaled so the mean stays BytesPerPair.
	Skew float64
	// StragglerFactor, when > 1, scales one randomly chosen mapper's
	// partitions by the factor — the straggler whose transfers gate
	// shuffle completion. 0 (or 1) disables.
	StragglerFactor float64
	// Seed drives host selection and the straggler draw.
	Seed int64
}

// Shuffle is one generated scenario instance.
type Shuffle struct {
	// Mappers and Reducers are the selected host IDs (disjoint sets).
	Mappers, Reducers []int
	// Bytes is the partition matrix, Bytes[mapper index][reducer index].
	Bytes [][]int64
	// Straggler is the index into Mappers of the scaled mapper, or -1.
	Straggler int
}

// TotalBytes returns the volume the shuffle moves over the network.
func (s Shuffle) TotalBytes() int64 {
	var total int64
	for _, row := range s.Bytes {
		for _, b := range row {
			total += b
		}
	}
	return total
}

// PairBytes adapts the matrix to the bytesPerPair function
// polyraptor.System.StartShuffle consumes.
func (s Shuffle) PairBytes(mi, ri int) int64 { return s.Bytes[mi][ri] }

// Validate rejects a configuration that cannot be drawn on a fabric of
// hosts hosts: an empty mapper or reducer set, more of them than the
// fabric has distinct hosts, an empty partition, a negative skew, or a
// straggler factor in (0, 1).
func (cfg ShuffleConfig) Validate(hosts int) error {
	if cfg.Mappers < 1 || cfg.Reducers < 1 {
		return fmt.Errorf("shuffle needs >= 1 mapper and >= 1 reducer, got %dx%d", cfg.Mappers, cfg.Reducers)
	}
	if cfg.Mappers+cfg.Reducers > hosts {
		return fmt.Errorf("shuffle needs %d distinct hosts, fabric has %d", cfg.Mappers+cfg.Reducers, hosts)
	}
	if cfg.BytesPerPair < 1 {
		return fmt.Errorf("shuffle needs bytes >= 1, got %d", cfg.BytesPerPair)
	}
	if cfg.Skew < 0 {
		return fmt.Errorf("shuffle skew must be non-negative, got %g", cfg.Skew)
	}
	if cfg.StragglerFactor != 0 && cfg.StragglerFactor < 1 {
		return fmt.Errorf("shuffle straggler factor must be 0 (off) or >= 1, got %g", cfg.StragglerFactor)
	}
	return nil
}

// GenerateShuffle draws disjoint mapper and reducer host sets and
// builds the partition-size matrix. Reducer-side skew follows the
// existing Zipf popularity model; the straggler mapper (if enabled) is
// one uniform draw. All choices are deterministic per seed.
func GenerateShuffle(cfg ShuffleConfig, racks RackView) Shuffle {
	// Internal invariant: every caller validates the configuration
	// before anything runs (harness.ShuffleOptions.Validate).
	if err := cfg.Validate(racks.NumHosts()); err != nil {
		panic("workload: " + err.Error())
	}

	rng := sim.RNG(cfg.Seed, "shuffle")
	perm := rng.Perm(racks.NumHosts())
	sh := Shuffle{
		Mappers:   perm[:cfg.Mappers],
		Reducers:  perm[cfg.Mappers : cfg.Mappers+cfg.Reducers],
		Straggler: -1,
	}

	// Reducer weights: Zipf mass scaled so the row mean is
	// BytesPerPair (the weights sum to 1, so multiplying by R keeps
	// the total per mapper at R*BytesPerPair).
	z := NewZipf(cfg.Reducers, cfg.Skew)
	base := make([]int64, cfg.Reducers)
	for r := 0; r < cfg.Reducers; r++ {
		b := float64(cfg.BytesPerPair) * z.Weight(r) * float64(cfg.Reducers)
		if b < 1 {
			b = 1
		}
		base[r] = int64(b)
	}
	if cfg.StragglerFactor > 1 {
		sh.Straggler = rng.Intn(cfg.Mappers)
	}

	sh.Bytes = make([][]int64, cfg.Mappers)
	for m := range sh.Bytes {
		row := make([]int64, cfg.Reducers)
		for r := range row {
			row[r] = base[r]
			if m == sh.Straggler {
				// Scale from the truncated base so the straggler's
				// partitions are an exact multiple of its peers'.
				if scaled := int64(float64(base[r]) * cfg.StragglerFactor); scaled > 0 {
					row[r] = scaled
				}
			}
		}
		sh.Bytes[m] = row
	}
	return sh
}
