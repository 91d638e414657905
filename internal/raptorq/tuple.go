package raptorq

// Tuple generation: every encoding symbol identifier (ESI) maps to an
// LT walk (d, a, b) over the W LT columns plus a short PI walk
// (d1, a1, b1) over the P permanently-inactive columns, following the
// construction of RFC 6330 §5.3.5.3 / RFC 5053 §5.4.4.3. The per-block
// seed incorporates the systematic index so the rank search in
// params.go can steer away from the rare singular constructions.

// tuple returns the full tuple for encoding symbol X.
func (p Params) tuple(x uint32) (d int, a, b uint32, d1 int, a1, b1 uint32) {
	qa := 53591 + 997*uint32(p.SIdx)
	qb := 10267 * (uint32(p.SIdx) + 1)
	y := qb + x*qa // wrapping arithmetic is intended
	v := rnd(y, 0, 1<<20)
	d = deg(v)
	if max := p.W - 2; d > max {
		d = max
	}
	if d < 1 {
		d = 1
	}
	a = 1 + rnd(y, 1, uint32(p.Wp-1))
	b = rnd(y, 2, uint32(p.Wp))
	// PI degree is 2, or 3 for high-degree LT parts (mirrors the RFC's
	// d1 selection, which gives denser PI coverage to the rows that are
	// most likely to participate in dependencies).
	if d < 4 {
		d1 = 2 + int(rnd(x, 3, 2))
	} else {
		d1 = 2
	}
	if d1 > p.P {
		d1 = p.P
	}
	a1 = 1 + rnd(x, 4, uint32(p.Pp-1))
	b1 = rnd(x, 5, uint32(p.Pp))
	return d, a, b, d1, a1, b1
}

// maxLTIndices bounds the columns of one encoding symbol: an LT degree of
// at most len(degCum)-1 (deg) and at most three PI neighbours (tuple).
const maxLTIndices = len(degCum) - 1 + 3

// LTIndices returns the (distinct) intermediate-symbol column indices
// combined to form encoding symbol X: d indices in the LT region
// [0, W) followed by d1 indices in the PI region [W, L). The encoding
// symbol is the XOR of the intermediate symbols at these indices.
func (p Params) LTIndices(x uint32) []int32 {
	d, _, _, d1, _, _ := p.tuple(x)
	return p.AppendLTIndices(make([]int32, 0, d+d1), x)
}

// AppendLTIndices appends the LT indices of encoding symbol X to dst
// and returns the extended slice — the allocation-free form of
// LTIndices for hot paths that reuse a scratch slice.
//
//polyvet:noalloc per-symbol tuple expansion; callers reuse a scratch slice
//polyvet:nobce index-generation loops append only; nothing to bounds-check per element
func (p Params) AppendLTIndices(dst []int32, x uint32) []int32 {
	d, a, b, d1, a1, b1 := p.tuple(x)
	for n := 0; n < d; {
		if b < uint32(p.W) {
			dst = append(dst, int32(b))
			n++
		}
		b = (b + a) % uint32(p.Wp)
	}
	for n := 0; n < d1; {
		if b1 < uint32(p.P) {
			dst = append(dst, int32(p.W)+int32(b1))
			n++
		}
		b1 = (b1 + a1) % uint32(p.Pp)
	}
	return dst
}

// Degree returns the LT degree of encoding symbol X (excluding the PI
// neighbours) — exposed for tests and simulator cost models.
func (p Params) Degree(x uint32) int {
	d, _, _, _, _, _ := p.tuple(x)
	return d
}
