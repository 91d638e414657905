package harness

import (
	"fmt"
	"math/rand"

	"polyraptor/internal/raptorq"
	"polyraptor/internal/sim"
)

// MeasureDecodeFailure empirically measures the real codec's decode
// failure probability: over `trials` independent draws, a K-symbol
// block is decoded from exactly K+overhead distinct encoding symbols
// chosen uniformly from a window of source and repair ESIs. This is
// the measurement that regenerates the paper's footnote-2 claim and
// keeps the simulator's closed-form overhead model honest.
func MeasureDecodeFailure(k, overhead, trials int, seed int64) (float64, error) {
	src := make([][]byte, k)
	for i := range src {
		src[i] = []byte{byte(i), byte(i >> 8)}
	}
	enc, err := raptorq.NewEncoder(src)
	if err != nil {
		return 0, fmt.Errorf("harness: %w", err)
	}
	rng := sim.RNG(seed, "measure-decode-failure")
	failures := 0
	for trial := 0; trial < trials; trial++ {
		ok, err := decodeOnce(enc, k, overhead, rng)
		if err != nil {
			return 0, fmt.Errorf("harness: %w", err)
		}
		if !ok {
			failures++
		}
	}
	return float64(failures) / float64(trials), nil
}

// decodeOnce reports whether one random symbol draw decodes; a codec
// misuse (not a decode failure) is an error.
func decodeOnce(enc *raptorq.Encoder, k, overhead int, rng *rand.Rand) (bool, error) {
	dec, err := raptorq.NewDecoder(k, 2)
	if err != nil {
		return false, err
	}
	perm := rng.Perm(4 * k)
	for _, e := range perm[:k+overhead] {
		if _, err := dec.AddSymbol(uint32(e), enc.Symbol(uint32(e))); err != nil {
			return false, err
		}
	}
	_, err = dec.Decode()
	return err == nil, nil
}
