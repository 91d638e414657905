//go:build race

package rqudp

// raceDetector says whether the race detector is on: it slows the codec
// tenfold, and with it every time that is compared to one without codec
// work in it.
const raceDetector = true
