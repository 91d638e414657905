// Fixture for the detmap analyzer: package name netsim makes it
// sim-visible. Every range over a map is a finding unless annotated,
// including the bodies whose order provably cannot matter (integer
// sums, min/max, writes keyed by the range key, idempotent flags,
// deletes): the annotation is where a reader finds that proof.
package netsim

import "maps"

func sumInts(m map[string]int) int {
	n := 0
	for _, v := range m { // want "iteration order is nondeterministic" (integer accumulation commutes)
		n += v
	}
	return n
}

func sumFloats(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want "iteration order is nondeterministic"
		s += v
	}
	return s
}

func keysInOrder(m map[string]int) []string {
	var out []string
	for k := range m { // want "iteration order is nondeterministic"
		out = append(out, k)
	}
	return out
}

func iterBypass(m map[string]int) []string {
	var out []string
	for k := range maps.Keys(m) { // want "iteration order is nondeterministic"
		out = append(out, k)
	}
	return out
}

func valuesBypass(m map[string]int) int {
	n := 0
	for v := range maps.Values(m) { // want "iteration order is nondeterministic" (accumulation through the iterator form)
		n += v
	}
	return n
}

func minMax(m map[int32]int) (int, int) {
	lo, hi := 1<<62, -(1 << 62)
	for _, v := range m { // want "iteration order is nondeterministic" (min/max builtins self-update)
		lo = min(lo, v)
		hi = max(hi, v)
	}
	return lo, hi
}

func drain(pulls map[int32]int) {
	for r := range pulls { // want "iteration order is nondeterministic" (updates the ranged map's own entry at the range key)
		pulls[r]--
	}
}

func invert(m map[string]int, out map[int]string) {
	for k, v := range m { // want "iteration order is nondeterministic"
		out[v] = k // value-keyed write: colliding values pick a random winner
	}
}

func double(m map[string]int, out map[string]int) {
	for k, v := range m { // want "iteration order is nondeterministic" (keyed by the distinct range key)
		out[k] = v * 2
	}
}

func collect(m map[string][]int, byKey map[string][]int) {
	for k, v := range m { // want "iteration order is nondeterministic" (self-append at the range key)
		byKey[k] = append(byKey[k], len(v))
	}
}

func mark(m map[int]struct{}, idx map[int]int, seen []bool) {
	for c := range m { // want "iteration order is nondeterministic" (idempotent slice write — every iteration stores the same value)
		seen[idx[c]] = true
	}
}

func anyNegative(m map[string]int) bool {
	found := false
	for _, v := range m { // want "iteration order is nondeterministic" (idempotent flag set under a pure condition)
		if v < 0 {
			found = true
		}
	}
	return found
}

func prune(m map[string]int) {
	for k, v := range m { // want "iteration order is nondeterministic" (delete at the range key, spec-blessed)
		if v == 0 {
			delete(m, k)
		}
	}
}

func nonEmpty(m map[string]int) bool {
	found := false
	for range m { // want "iteration order is nondeterministic" (the body never reads the range variables, so break is safe)
		found = true
		break
	}
	return found
}

func firstKey(m map[string]int) string {
	for k := range m { // want "iteration order is nondeterministic"
		return k
	}
	return ""
}

func lastKey(m map[string]int) (k string) {
	for k = range m { // want "iteration order is nondeterministic"
	}
	return k
}

func annotated(m map[string]float64) float64 {
	s := 0.0
	//polyvet:orderfree fixture: tolerated float sum, exercising suppression
	for _, v := range m {
		s += v
	}
	return s
}
