package harness

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
)

// The claims table: each result of the paper that this repository
// reproduces, stated as a relation between two sweep cells over the
// same ten seeds. A metric's interval is its mean ∓ CI95 across the
// seeds (sweep.Aggregate), so a row holds only when the whole interval
// clears the bound, not when one lucky seed does. Every row names the
// baseline it beats; a row that a later change turns red is a finding
// about that change.

// claimSeeds is every row's seed count, sweep.SubSeed(1, 0..9): the
// seeds of `poly sweep -seed 1 -seeds 10`. It is fixed for the table,
// not chosen per row. At five seeds Fig 1a's "3 replicas ≥ 0.5 × 1
// replica" fails (0.3217 < 0.5 × 0.6528); at ten it holds.
const claimSeeds = 10

// paperClaimSeeds is the seed count of the paper-scale tier, whose
// figure cells take minutes of CPU a run.
const paperClaimSeeds = 3

// paperTier reports whether POLY_CLAIMS=paper selects the paper-scale
// tier, which tier-1 and CI do not run (43 min wall, 75 CPU-minutes on
// 2 CPUs).
func paperTier() bool { return os.Getenv("POLY_CLAIMS") == "paper" }

// claimTable returns the rows TestClaims holds and their seed count:
// the table at ten seeds or, in the paper tier, the figure rows (fig1a,
// fig1b and fig1c) with the paper scale's flags in front of their own,
// at paperClaimSeeds. Chaos, shuffle and the ablations have no paper
// size.
func claimTable() ([]claim, int) {
	if !paperTier() {
		return claims, claimSeeds
	}
	paper, _, _ := LookupFigureScale("paper")
	prefix := map[string]string{"fig1a": paper.Fig1, "fig1b": paper.Fig1, "incast": paper.Incast}
	var rows []claim
	for _, c := range claims {
		if _, ok := prefix[c.a.scenario]; !ok {
			continue
		}
		for _, s := range []*side{&c.a, &c.b} {
			s.flags = strings.TrimSpace(prefix[s.scenario] + " " + s.flags)
		}
		rows = append(rows, c)
	}
	return rows, paperClaimSeeds
}

// cellRef names one sweep cell: a scenario on a backend, sized by
// DefaultSweepParams changed only by poly sweep flags, parsed through
// the scenario's flag set (SweepParams.Flags).
type cellRef struct {
	// scenario is a SweepScenarios name or an AblationCells one.
	scenario string
	// backend is rq, tcp or dctcp; ablation cells run on rq.
	backend string
	// flags are the poly sweep flags that differ from the defaults.
	flags string
}

// side is one operand of a claim: a metric of a cell.
type side struct {
	cellRef
	metric string
}

func rq(scenario, flags, metric string) side  { return side{cellRef{scenario, "rq", flags}, metric} }
func tcp(scenario, flags, metric string) side { return side{cellRef{scenario, "tcp", flags}, metric} }
func dctcp(scenario, flags, metric string) side {
	return side{cellRef{scenario, "dctcp", flags}, metric}
}

// relation is how a claim's two sides compare. lower and upper are the
// CI95 bounds; f is the row's factor.
type relation int

const (
	// atLeast: lower(a) ≥ f·upper(b). With f = 1, a beats b on a
	// larger-is-better metric.
	atLeast relation = iota
	// atMost: upper(a) ≤ f·lower(b). With f = 1, a beats b on a
	// smaller-is-better metric.
	atMost
	// level: the two intervals overlap.
	level
	// sameEverySeed: a's sample equals b's on every seed.
	sameEverySeed
	// sumAbove: Σa > Σb over the seeds.
	sumAbove
	// everySeedAtLeast: every sample of a is ≥ f; b is unused. The
	// preconditions that keep other rows from passing vacuously.
	everySeedAtLeast
)

// claim is one row of the table.
type claim struct {
	name string
	a    side
	rel  relation
	f    float64
	b    side
}

const (
	incast70   = "-bytes 71680"
	oneReplica = "-replicas 1"
)

// claims is the table. Fig 1c's rows run the sweep's incast cell at the
// paper's 70 KB and at the 256 KB default; "2" and "12" are -senders.
var claims = []claim{
	{"fig1a-rq-5x-tcp", rq("fig1a", "", "goodput_p50_gbps"), atLeast, 5, tcp("fig1a", "", "goodput_p50_gbps")},
	{"fig1a-rq3-half-rq1", rq("fig1a", "", "goodput_p50_gbps"), atLeast, 0.5, rq("fig1a", oneReplica, "goodput_p50_gbps")},
	{"fig1a-rq-beats-dctcp", rq("fig1a", "", "goodput_p50_gbps"), atLeast, 1, dctcp("fig1a", "", "goodput_p50_gbps")},
	{"fig1b-rq3-beats-rq1", rq("fig1b", "", "goodput_p50_gbps"), atLeast, 1, rq("fig1b", oneReplica, "goodput_p50_gbps")},
	{"fig1b-rq-beats-tcp", rq("fig1b", "", "goodput_p50_gbps"), atLeast, 1, tcp("fig1b", "", "goodput_p50_gbps")},
	{"fig1b-rq-beats-dctcp", rq("fig1b", "", "goodput_p50_gbps"), atLeast, 1, dctcp("fig1b", "", "goodput_p50_gbps")},
	{"fig1c-70KB-rq-flat", rq("incast", "-senders 12 "+incast70, "goodput_gbps"), atLeast, 0.9, rq("incast", "-senders 2 "+incast70, "goodput_gbps")},
	{"fig1c-70KB-tcp-collapses", tcp("incast", "-senders 12 "+incast70, "goodput_gbps"), atMost, 0.5, rq("incast", "-senders 12 "+incast70, "goodput_gbps")},
	{"fig1c-70KB-rq-beats-dctcp", rq("incast", "-senders 12 "+incast70, "goodput_gbps"), atLeast, 1, dctcp("incast", "-senders 12 "+incast70, "goodput_gbps")},
	{"fig1c-256KB-rq-flat", rq("incast", "-senders 12", "goodput_gbps"), atLeast, 0.9, rq("incast", "-senders 2", "goodput_gbps")},
	{"fig1c-256KB-tcp-collapses", tcp("incast", "-senders 12", "goodput_gbps"), atMost, 0.5, rq("incast", "-senders 12", "goodput_gbps")},
	// The measured relation, not the paper's: with 256 KB blocks DCTCP
	// edges out RQ at N = 12.
	{"fig1c-256KB-dctcp-beats-rq", dctcp("incast", "-senders 12", "goodput_gbps"), atLeast, 1, rq("incast", "-senders 12", "goodput_gbps")},
	{"shuffle-rq-beats-tcp", rq("shuffle", "", "shuffle_s"), atMost, 1, tcp("shuffle", "", "shuffle_s")},
	{"shuffle-rq-level-dctcp", rq("shuffle", "", "shuffle_s"), level, 0, dctcp("shuffle", "", "shuffle_s")},
	{"chaos-fault-strikes", rq("chaos", "", "fault_targets"), everySeedAtLeast, 1, side{}},
	{"chaos-rq-blackholed", rq("chaos", "", "blackholed"), everySeedAtLeast, 1, side{}},
	{"chaos-rq-stalls-only-partitioned", rq("chaos", "", "stalled"), sameEverySeed, 0, rq("chaos", "", "partitioned")},
	{"chaos-rq-goodput-beats-tcp", rq("chaos", "", "goodput_gbps"), atLeast, 1, tcp("chaos", "", "goodput_gbps")},
	{"chaos-tcp-strands-more", tcp("chaos", "", "stalled"), sumAbove, 0, tcp("chaos", "", "partitioned")},
	{"chaos-dctcp-strands-more", dctcp("chaos", "", "stalled"), sumAbove, 0, dctcp("chaos", "", "partitioned")},
	{"A1-trim", rq("ablation-trim", "", "trim_gbps"), atLeast, 1, rq("ablation-trim", "", "notrim_gbps")},
	{"A2-init-window", rq("ablation-initwindow", "", "fct_window_us"), atMost, 1, rq("ablation-initwindow", "", "fct_nowindow_us")},
	{"A4-decode", rq("ablation-decode", "", "nolat_gbps"), atLeast, 1, rq("ablation-decode", "", "lat_gbps")},
}

// runClaimCells runs every cell the rows name in one sweep of seeds
// seeds.
func runClaimCells(rows []claim, seeds int) (map[cellRef]sweep.CellResult, error) {
	var refs []cellRef
	seen := map[cellRef]bool{}
	for _, r := range rows {
		for _, s := range []side{r.a, r.b} {
			if s.scenario != "" && !seen[s.cellRef] {
				seen[s.cellRef] = true
				refs = append(refs, s.cellRef)
			}
		}
	}
	cells := make([]sweep.Cell, len(refs))
	for i, ref := range refs {
		p := DefaultSweepParams()
		set := ref.scenario
		if strings.HasPrefix(set, "ablation-") {
			set = "ablations"
		}
		fs, err := p.Flags(set)
		if err != nil {
			return nil, err
		}
		if err := fs.Parse(strings.Fields(ref.flags)); err != nil {
			return nil, fmt.Errorf("claims: %s %s: %v", ref.scenario, ref.flags, err)
		}
		if set == "ablations" {
			ablations, err := AblationCells(p)
			if err != nil {
				return nil, err
			}
			for _, c := range ablations {
				if c.Scenario == ref.scenario {
					cells[i] = c
				}
			}
			if cells[i].Run == nil {
				return nil, fmt.Errorf("claims: no ablation %q", ref.scenario)
			}
			continue
		}
		be, ok := store.ParseBackend(ref.backend)
		if !ok {
			return nil, fmt.Errorf("claims: no backend %q", ref.backend)
		}
		c, err := newSweepCell(ref.scenario, be, p)
		if err != nil {
			return nil, err
		}
		cells[i] = c
	}
	res, err := sweep.Matrix{Cells: cells, Seeds: seeds, BaseSeed: 1}.Run()
	if err != nil {
		return nil, err
	}
	out := map[cellRef]sweep.CellResult{}
	for i, ref := range refs {
		if errs := res.Cells[i].Errors; len(errs) > 0 {
			return nil, fmt.Errorf("claims: %+v: %v", ref, errs)
		}
		out[ref] = res.Cells[i]
	}
	return out, nil
}

// eval reports whether the row holds over the results, and its numbers.
func (c claim) eval(res map[cellRef]sweep.CellResult) (bool, string) {
	samples := func(s side) []float64 { return res[s.cellRef].Samples[s.metric] }
	bounds := func(s side) (sweep.Aggregate, float64, float64) {
		a, _ := res[s.cellRef].Metric(s.metric)
		return a, a.Mean - a.CI95, a.Mean + a.CI95
	}
	interval := func(s side) string {
		a, lo, hi := bounds(s)
		return fmt.Sprintf("%s/%s %s %.4f [%.4f, %.4f] n=%d", s.scenario, s.backend, s.metric, a.Mean, lo, hi, a.N)
	}
	n := len(res[c.a.cellRef].Seeds)
	if len(samples(c.a)) != n || (c.rel != everySeedAtLeast && len(samples(c.b)) != n) {
		return false, fmt.Sprintf("want %d samples a side: %v against %v", n, samples(c.a), samples(c.b))
	}
	_, aLo, aHi := bounds(c.a)
	_, bLo, bHi := bounds(c.b)
	switch c.rel {
	case atLeast:
		return aLo >= c.f*bHi, fmt.Sprintf("lower %s ≥ %g × upper %s", interval(c.a), c.f, interval(c.b))
	case atMost:
		return aHi <= c.f*bLo, fmt.Sprintf("upper %s ≤ %g × lower %s", interval(c.a), c.f, interval(c.b))
	case level:
		return aLo <= bHi && bLo <= aHi, fmt.Sprintf("%s overlaps %s", interval(c.a), interval(c.b))
	case sameEverySeed:
		ok := true
		for i, v := range samples(c.a) {
			ok = ok && v == samples(c.b)[i]
		}
		return ok, fmt.Sprintf("%s %v = %s %v on every seed", c.a.metric, samples(c.a), c.b.metric, samples(c.b))
	case sumAbove:
		sa, sb := sum(samples(c.a)), sum(samples(c.b))
		return sa > sb, fmt.Sprintf("Σ %s/%s %s %g > Σ %s %g", c.a.scenario, c.a.backend, c.a.metric, sa, c.b.metric, sb)
	case everySeedAtLeast:
		ok := true
		for _, v := range samples(c.a) {
			ok = ok && v >= c.f
		}
		return ok, fmt.Sprintf("%s/%s %s %v ≥ %g on every seed", c.a.scenario, c.a.backend, c.a.metric, samples(c.a), c.f)
	}
	return false, fmt.Sprintf("unknown relation %d", c.rel)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// replay returns the replay lines of a row's cells, once each.
func (c claim) replay(res map[cellRef]sweep.CellResult) []string {
	var lines []string
	for _, s := range []side{c.a, c.b} {
		if line := res[s.cellRef].Replay; s.scenario != "" && !slices.Contains(lines, line) {
			lines = append(lines, line)
		}
	}
	return lines
}

var claimResults struct {
	once sync.Once
	res  map[cellRef]sweep.CellResult
	err  error
}

// claimCells runs claimTable's cells once per test binary.
func claimCells(t *testing.T) map[cellRef]sweep.CellResult {
	t.Helper()
	claimResults.once.Do(func() { claimResults.res, claimResults.err = runClaimCells(claimTable()) })
	if claimResults.err != nil {
		t.Fatal(claimResults.err)
	}
	return claimResults.res
}

// TestClaims holds every row of the table. -v prints each row's
// numbers; a red row prints the command lines that replay its cells.
// POLY_CLAIMS=paper runs the paper-scale tier instead (claimTable).
func TestClaims(t *testing.T) {
	res := claimCells(t)
	rows, _ := claimTable()
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			ok, detail := c.eval(res)
			if !ok {
				t.Fatalf("%s does not hold: %s\nreplay:\n  %s", c.name, detail, strings.Join(c.replay(res), "\n  "))
			}
			t.Log(detail)
		})
	}
}

// TestClaimsTurnRed plants a fault in a row: with DCTCP in TCP's place,
// "TCP collapses at N = 12" must fail, so the table can tell a
// transport that collapses from one that does not.
func TestClaimsTurnRed(t *testing.T) {
	if paperTier() {
		t.Skip("checks the ten-seed table's replay lines")
	}
	res := claimCells(t)
	for _, c := range claims {
		if c.name != "fig1c-70KB-tcp-collapses" {
			continue
		}
		if ok, _ := c.eval(res); !ok {
			t.Fatalf("%s does not hold before the swap", c.name)
		}
		c.a.backend = "dctcp"
		if ok, detail := c.eval(res); ok {
			t.Fatalf("%s still holds with DCTCP in TCP's place: %s", c.name, detail)
		}
		want := []string{
			"poly sweep -scenarios=incast -backends=dctcp -seed=1 -seeds=10 -bytes=71680 -senders=12",
			"poly sweep -scenarios=incast -backends=polyraptor -seed=1 -seeds=10 -bytes=71680 -senders=12",
		}
		if got := c.replay(res); !slices.Equal(got, want) {
			t.Fatalf("replay %q, want %q", got, want)
		}
		return
	}
	t.Fatal("no fig1c-70KB-tcp-collapses row")
}
