package raptorq

import (
	"polyraptor/internal/gf256"
)

// Partial-systematic decoding: when most source symbols arrive intact,
// paying a full L x L inactivation solve to recover a handful of
// missing rows wastes almost all of its work — the observation SCDP
// builds its datacenter transport on. This path reduces the decode to
// an m x m dense system over only the m missing source symbols.
//
// The precode solve is linear and byte-lane-wise: every recorded
// schedule op (XOR, GF(256) multiply-add, scale) maps byte position b
// of its inputs to byte position b of its output. Writing the
// intermediate symbols as a function of the source block therefore
// splits cleanly:
//
//	C[col] = C0[col] + sum_j gamma[col][j] * x_j
//
// where x_j is the j-th *missing* source symbol, C0 is the precode
// replay with zeros in the missing rows (computed at full symbol
// width), and gamma[col][j] is a GF(256) scalar — recovered for all
// columns at once by replaying the same schedule over m-byte "lanes"
// seeded with unit vectors e_j in the missing rows.
//
// Each received repair symbol with ESI e then yields one equation over
// the x_j:
//
//	sum_j a_e[j] * x_j = recv[e] - sum_{col in LT(e)} C0[col]
//	a_e[j] = sum_{col in LT(e)} gamma[col][j]
//
// Gauss-Jordan on the resulting r x m system (r = m plus a few spare
// repair rows) recovers the missing sources directly — no intermediate
// symbols, no regeneration step. If the capped repair subset happens
// to be rank-deficient, Decode falls back to the full solver, which
// sees every received row.
//
// Byte-identity with the full solver: both paths compute the unique
// exact solution of a full-rank linear system whose solution is the
// original source block, so agreement is exact, not approximate — the
// differential tests assert it byte-for-byte.

// partialExtraRows is how many repair equations beyond m the partial
// path stacks onto the dense system. The reduced system inherits full
// rank from the received set with overwhelming probability; a few
// spare rows make the rank-deficient fall-back rare instead of
// common at m == repair count.
const partialExtraRows = 8

// partialMaxMissing bounds how many missing source rows the partial
// path will take on. Against plan + replay at K=256 the m x m dense
// solve and the lane replay break even at m = K/8 with 1 KiB symbols and
// near m = K/5 with 128-byte ones, and lose from there on (table in
// EXPERIMENTS.md "Cold decode: plan, prune, replay"). The absolute cap
// bounds the lane arena for huge blocks.
func partialMaxMissing(k int) int {
	m := k / 8
	if m < 1 {
		m = 1
	}
	if m > 128 {
		m = 128
	}
	return m
}

// decodePartial recovers the m missing source symbols via the reduced
// system and copies them to their slots of the block. It requires at
// least K symbols held (checked by decode). Everything it works in is
// reused scratch: in the steady state it allocates nothing.
func (d *Decoder) decodePartial(m int) error {
	k, sc := d.p.K, d.sc
	sched, err := precodeSchedule(d.p)
	if err != nil {
		return err
	}

	// Repair rows: the lowest ESIs held, a few more than unknowns.
	repairs := d.rep[:min(len(d.rep), m+partialExtraRows)]
	if len(repairs) < m {
		return ErrSingular
	}

	// Missing source rows, ascending, and the received ones for the base
	// replay below, with nil — a zero row — where one is missing.
	miss := sc.missBuf[:0]
	rows := sc.rowBuf[:0]
	for i := 0; i < k; i++ {
		if d.has(i) {
			rows = append(rows, d.src(i))
		} else {
			rows = append(rows, nil)
			miss = append(miss, uint32(i))
		}
	}
	sc.missBuf, sc.rowBuf = miss, rows

	s := d.p.S
	nSlots := sched.nSlots

	// Lane replay: unit byte-lanes in the missing rows expose the
	// GF(256) coefficient of every intermediate on every missing
	// source.
	lanes := sc.lanes.slots(nSlots, m)
	for i := range lanes {
		clear(lanes[i])
	}
	for j, esi := range miss {
		lanes[s+int(esi)][j] = 1
	}
	sched.replay(lanes)

	// Base replay: the known part C0 of every intermediate, from the
	// received sources with zeros in the missing rows.
	base := sc.slots.load(nSlots, d.t, s, rows)
	sched.replay(base)

	// Assemble the reduced r x m system.
	r := len(repairs)
	sc.coefBuf = sized(sc.coefBuf, r*m)
	sc.rhsBuf = sized(sc.rhsBuf, r*d.t)
	eq := sc.eqRows[:0]
	eqSym := sc.eqSymRows[:0]
	scratch := sc.ltScratch
	for i, rep := range repairs {
		coef := sc.coefBuf[i*m : (i+1)*m : (i+1)*m]
		clear(coef)
		rhs := sc.rhsBuf[i*d.t : (i+1)*d.t : (i+1)*d.t]
		copy(rhs, d.store.sym(rep.slot, d.t))
		scratch = d.p.AppendLTIndices(scratch[:0], rep.esi)
		for _, col := range scratch {
			slot := sched.outSlot[col]
			gf256.AddRow(coef, lanes[slot])
			gf256.AddRow(rhs, base[slot])
		}
		eq = append(eq, coef)
		eqSym = append(eqSym, rhs)
	}
	sc.ltScratch = scratch
	sc.eqRows, sc.eqSymRows = eq, eqSym

	rowOfCol := sized(sc.rowOfCol, m)
	sc.rowOfCol = rowOfCol
	if err := gaussJordanScratch(eq, eqSym, m, rowOfCol); err != nil {
		return err
	}
	for j, esi := range miss {
		copy(d.src(int(esi)), eqSym[rowOfCol[j]])
	}
	return nil
}
