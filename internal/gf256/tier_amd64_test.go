//go:build amd64 && gc

package gf256

// hostTiers starts from init's choice and steps down through every
// slower tier to the word kernels.
func hostTiers() []kernelTier {
	k := kernelTier{gfni: useGFNI, avx2: useAVX2, ssse3: useSSSE3, sse2: haveSSE2}
	var ts []kernelTier
	if k.gfni {
		k.name = "gfni-avx512"
		ts = append(ts, k)
	}
	k.gfni = false
	if k.avx2 {
		k.name = "avx2"
		ts = append(ts, k)
	}
	k.avx2 = false
	k.name = "sse2"
	if k.ssse3 {
		k.name = "ssse3-sse2"
	}
	ts = append(ts, k)
	return append(ts, kernelTier{name: "words"})
}

func selectTier(k kernelTier) {
	useGFNI, useAVX2, useSSSE3, haveSSE2 = k.gfni, k.avx2, k.ssse3, k.sse2
}
