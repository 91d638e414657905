package metrics

import "math"

// Histogram layout. Positive values are bucketed log-linearly: the
// exponent range [minExp, maxExp] gives one octave [2^o, 2^(o+1)) per
// exponent o, and each octave is split into SubBuckets equal-width
// sub-buckets. Within a sub-bucket every value is represented by the
// bucket midpoint, so the representation error is at most half the
// bucket width: RelError = 1/(2*SubBuckets) relative. Values <= 0
// land in a dedicated zero bucket; positive values below 2^minExp
// clamp to the lowest bucket and values at or above 2^(maxExp+1)
// clamp to the highest (the exact min and max are tracked separately,
// so the extreme quantiles stay exact even for clamped samples). NaN
// samples are counted and otherwise ignored — one stalled-flow NaN
// must not poison a distribution.
const (
	subBits = 6
	// SubBuckets is the number of sub-buckets per octave.
	SubBuckets = 1 << subBits
	// minExp/maxExp bound the covered octaves: [2^-40, 2^40) spans
	// sub-nanosecond FCTs to tens-of-billions packet counts.
	minExp     = -40
	maxExp     = 39
	numOctaves = maxExp - minExp + 1
	// NumBuckets is the dense bucket count (excluding the zero bucket).
	NumBuckets = numOctaves * SubBuckets
)

// RelError is the documented worst-case relative error of a quantile
// read from the histogram versus the exact interpolated percentile of
// the recorded samples (stats.Percentile), for positive samples within
// the covered range: half of one sub-bucket's relative width,
// 1/(2*64) ≈ 0.78%.
const RelError = 1.0 / (2 * SubBuckets)

// maxTrackable is the clamp bound for recorded values: 2^(maxExp+1).
var maxTrackable = math.Ldexp(1, maxExp+1)

// bucketMid holds each bucket's representative value (its midpoint),
// shared by all histograms.
var bucketMid = makeBucketMids()

func makeBucketMids() *[NumBuckets]float64 {
	var m [NumBuckets]float64
	for i := range m {
		o := minExp + i>>subBits
		s := i & (SubBuckets - 1)
		m[i] = math.Ldexp(1+(float64(s)+0.5)/SubBuckets, o)
	}
	return &m
}

// Histogram is a log-linear HDR-style histogram. Its state — bucket
// counts, zero/NaN counts, exact min/max — forms a commutative
// monoid under Merge, so merging any number of histograms in any
// order (or any grouping) yields identical state and byte-identical
// snapshots. Create with NewHistogram; the zero value is not useful.
// All methods are safe on a nil receiver — a nil *Histogram IS the
// disabled state, so recording sites need no separate enabled flag.
type Histogram struct {
	counts []uint64
	zero   uint64 // samples <= 0
	nans   uint64 // NaN samples (skipped, not part of count)
	count  uint64 // recorded samples, including zeros, excluding NaNs
	min    float64
	max    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint64, NumBuckets),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Record adds one sample. On a nil receiver (metering disabled) it is
// a single branch and no work.
//
//polyvet:noalloc called per simulated packet/flow; pure index arithmetic
//polyvet:inline the disabled-metering case must cost one branch, not a call
func (h *Histogram) Record(v float64) {
	if h == nil {
		return
	}
	h.record(v)
}

// record is the enabled path of Record.
//
//polyvet:noalloc called per simulated packet/flow; pure index arithmetic
func (h *Histogram) record(v float64) {
	if v != v { // NaN
		h.nans++
		return
	}
	if v > maxTrackable {
		v = maxTrackable
	} else if v < -maxTrackable {
		v = -maxTrackable
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	if v <= 0 {
		h.zero++
		return
	}
	// v = f * 2^e with f in [0.5, 1): octave o = e-1, sub-bucket from
	// the top subBits+1 mantissa bits of f.
	f, e := math.Frexp(v)
	o := e - 1
	switch {
	case o < minExp:
		h.counts[0]++
	case o > maxExp:
		h.counts[NumBuckets-1]++
	default:
		h.counts[(o-minExp)<<subBits+int(f*(2*SubBuckets))-SubBuckets]++
	}
}

// Merge folds o's samples into h: bucket-wise count addition plus
// min/max. Addition and min/max are associative and commutative, so
// any merge order or grouping produces identical state — the property
// that keeps parallel sweep aggregation byte-identical. o is not
// modified.
//
//polyvet:noalloc snapshot-merge runs per (cell, repetition) in sweep aggregation; vector add over fixed buckets
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.zero += o.zero
	h.nans += o.nans
	h.count += o.count
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded samples (NaNs excluded).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Min returns the exact minimum recorded sample (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum recorded sample (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of the bucket-midpoint
// representation (samples <= 0 contribute 0), within RelError of the
// exact mean for positive in-range samples. Computed by a fixed-order
// scan over bucket counts, so it is identical however the histogram
// was merged together.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.counts {
		if c != 0 {
			sum += bucketMid[i] * float64(c)
		}
	}
	return sum / float64(h.count)
}

// Quantile returns the p-th percentile (0..100) of the recorded
// distribution, mirroring stats.Percentile's convention: linear
// interpolation between order statistics at position p/100*(count-1).
// Order statistics are bucket midpoints clamped to [min, max] (ranks
// 0 and count-1 are the exact min and max), so for positive samples
// within the covered range the result is within RelError of
// stats.Percentile over the raw samples. Returns 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	pos := p / 100 * float64(h.count-1)
	lo := uint64(pos)
	frac := pos - float64(lo)
	v := h.valueAtRank(lo)
	if frac == 0 || lo+1 >= h.count {
		return v
	}
	return v*(1-frac) + h.valueAtRank(lo+1)*frac
}

// valueAtRank returns the representative value of the r-th (0-based)
// order statistic. The caller guarantees count > 0 and r < count.
func (h *Histogram) valueAtRank(r uint64) float64 {
	if r == 0 {
		return h.min
	}
	if r >= h.count-1 {
		return h.max
	}
	cum := h.zero
	if r < cum {
		return h.clampRange(0)
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if r < cum {
			return h.clampRange(bucketMid[i])
		}
	}
	return h.max
}

// clampRange clamps a representative value to the exact [min, max]
// envelope, keeping rank values monotone and never outside the
// observed range.
func (h *Histogram) clampRange(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// BucketCount is one populated bucket of a Snapshot.
type BucketCount struct {
	// Index is the dense bucket index: octave Index/SubBuckets above
	// the lowest, sub-bucket Index%SubBuckets within it.
	Index int `json:"i"`
	// Count is the bucket's sample count.
	Count uint64 `json:"n"`
}

// Snapshot is the portable, sparse export of a histogram: only
// populated buckets, in ascending index order, so equal histogram
// state always marshals to identical JSON bytes.
type Snapshot struct {
	// SubBuckets echoes the layout so readers can interpret indices.
	SubBuckets int    `json:"sub_buckets"`
	Count      uint64 `json:"count"`
	Zero       uint64 `json:"zero,omitempty"`
	NaNs       uint64 `json:"nans,omitempty"`
	// Min and Max are the exact extremes (0 when the histogram is
	// empty — infinities do not survive JSON).
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot exports the histogram's current state. Nil-safe (returns
// nil).
func (h *Histogram) Snapshot() *Snapshot {
	if h == nil {
		return nil
	}
	s := &Snapshot{SubBuckets: SubBuckets, Count: h.count, Zero: h.zero, NaNs: h.nans}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, BucketCount{Index: i, Count: c})
		}
	}
	return s
}
