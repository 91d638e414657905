//go:build !race

package rqudp

const raceDetector = false
