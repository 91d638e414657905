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
// replay with zeros in the missing rows, and gamma[col][j] is a GF(256)
// scalar. Both come out of one replay: every slot is T + roundUp(m, 32)
// bytes wide, the received sources fill the heads, and missing row j
// carries the unit vector e_j in its tail, so afterwards the head of
// each slot is C0[col] and the tail gamma[col] (the rounding keeps a
// row of 1 KiB symbols whole for the 32-byte kernels). Only the ops that
// can reach a column the chosen repair rows read are replayed: at K=256,
// 3,647 of 6,063 for 3 rows, 4,233 for 21.
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
// path will take on. At K=256 with 1 KiB symbols it decodes m = 32 in
// under three quarters of the full solver's time and ties it at m = 48;
// with 1,436-byte symbols, whose slots are no multiple of 32 wide, m = 32
// is still a little faster (table in docs/perf/pr28-partial-decode.md).
// K/8 stays below both with room for a noisy draw. The
// absolute cap bounds the coefficient tail of the replay slots for huge
// blocks.
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
	k, t, sc := d.p.K, d.t, d.sc
	sched, err := precodeSchedule(d.p)
	if err != nil {
		return err
	}

	// Repair rows: the lowest ESIs held, a few more than unknowns.
	repairs := d.rep[:min(len(d.rep), m+partialExtraRows)]
	if len(repairs) < m {
		return ErrSingular
	}

	// Slots: the received sources in the heads of their rows, e_j in the
	// tail of the j-th missing one, zero everywhere else.
	w := t + (m+31)&^31
	syms := sc.slots.slots(sched.nSlots, w)
	miss := sc.missBuf[:0]
	for i, sym := range syms {
		switch esi := i - d.p.S; {
		case esi < 0 || esi >= k:
			clear(sym)
		case d.has(esi):
			clear(sym[copy(sym, d.src(esi)):])
		default:
			clear(sym)
			sym[t+len(miss)] = 1
			miss = append(miss, uint32(esi))
		}
	}
	sc.missBuf = miss

	// Replay what the repair rows' LT columns depend on, and nothing else.
	live := sized(sc.liveSlot, sched.nSlots)
	clear(live)
	scratch := sc.ltScratch
	for _, rep := range repairs {
		scratch = d.p.AppendLTIndices(scratch[:0], rep.esi)
		for _, col := range scratch {
			live[sched.outSlot[col]] = true
		}
	}
	sc.liveSlot = live
	sc.keepOp = sized(sc.keepOp, len(sched.ops))
	sched.liveOps(live, sc.keepOp)
	sched.replay(syms, sc.keepOp)

	// Assemble the reduced r x m system, one equation per repair row:
	// its head is recv[e] - sum C0, its tail the coefficients a_e.
	r := len(repairs)
	sc.rhsBuf = sized(sc.rhsBuf, r*w)
	eq := sc.eqRows[:0]
	eqSym := sc.eqSymRows[:0]
	for i, rep := range repairs {
		row := sc.rhsBuf[i*w : (i+1)*w : (i+1)*w]
		clear(row[copy(row, d.store.sym(rep.slot, t)):])
		scratch = d.p.AppendLTIndices(scratch[:0], rep.esi)
		for _, col := range scratch {
			gf256.AddRow(row, syms[sched.outSlot[col]])
		}
		eq = append(eq, row[t:t+m:t+m])
		eqSym = append(eqSym, row[:t:t])
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
