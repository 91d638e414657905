package polyvet

import "testing"

func TestDetMapFixture(t *testing.T) {
	RunFixture(t, "detmap", DetMap)
}

// TestDetMapCatchesPR1TcpsimBug is the mutation test: the map-ordered
// RTT EWMA feed fixed in PR 1, reintroduced in a fixture. If detmap
// ever stops flagging this shape, the suite has lost the regression it
// was built around.
func TestDetMapCatchesPR1TcpsimBug(t *testing.T) {
	RunFixture(t, "tcpsimbug", DetMap)
}

func TestSimClockFixture(t *testing.T) {
	RunFixture(t, "simclock", SimClock)
}

func TestRNGStreamFixture(t *testing.T) {
	RunFixture(t, "rngstream", RNGStream)
}

// TestBlessedDeriver: the deriver package itself (func RNG in package
// sim) is exempt from both RNG analyzers — zero findings expected.
func TestBlessedDeriver(t *testing.T) {
	RunFixture(t, "sim", RNGStream, SimClock, DetMap)
}

func TestDirectiveHygiene(t *testing.T) {
	RunFixture(t, "directives", DetMap)
}
