//go:build !amd64 || !gc

package gf256

// hostTiers: without the assembly kernels the word tier is the only one.
func hostTiers() []kernelTier { return []kernelTier{{name: "words"}} }

func selectTier(kernelTier) {}
