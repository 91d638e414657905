package deep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

type cellSpec struct {
	name   string
	allocs float64
	mbps   float64
}

func benchJSON(index int, cells []cellSpec) map[string]any {
	results := make([]map[string]any, 0, len(cells))
	for _, c := range cells {
		results = append(results, map[string]any{
			"name": c.name, "allocs_per_op": c.allocs, "mb_per_s": c.mbps,
		})
	}
	return map[string]any{"schema": "polyperf/v1", "index": index, "results": results}
}

func budgetJSON(cells map[string]BudgetCell) *Budget {
	return &Budget{Schema: "polyvet-allocbudget/v1", Cells: cells}
}

func TestBudgetCeilings(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "BENCH_0.json"), benchJSON(0, []cellSpec{
		{"kernel/zero", 0, 1000},
		{"e2e/busy", 75100, 0},
		{"kernel/unlocked", 3, 10},
	}))
	bp := filepath.Join(dir, "budget.json")
	writeJSON(t, bp, budgetJSON(map[string]BudgetCell{
		"kernel/zero": {AllocsPerOp: 0},
		"e2e/busy":    {AllocsPerOp: 76000},
		"gone/cell":   {AllocsPerOp: 5},
	}))

	diags, err := CheckBudget(dir, bp)
	if err != nil {
		t.Fatal(err)
	}
	all := diagLines(diags)
	if fatalCount(diags) != 1 || !strings.Contains(all, `locked cell "gone/cell" missing`) {
		t.Errorf("missing locked cell must be the only failure, got:\n%s", all)
	}
	if !strings.Contains(all, `"kernel/unlocked" has no locked budget`) {
		t.Errorf("unlocked cell must be surfaced informationally, got:\n%s", all)
	}

	// Now push the zero cell over its ceiling.
	writeJSON(t, filepath.Join(dir, "BENCH_1.json"), benchJSON(1, []cellSpec{
		{"kernel/zero", 1, 1000},
		{"e2e/busy", 75200, 0},
		{"kernel/unlocked", 3, 10},
	}))
	writeJSON(t, bp, budgetJSON(map[string]BudgetCell{
		"kernel/zero": {AllocsPerOp: 0},
		"e2e/busy":    {AllocsPerOp: 76000},
	}))
	diags, err = CheckBudget(dir, bp)
	if err != nil {
		t.Fatal(err)
	}
	all = diagLines(diags)
	if !strings.Contains(all, "kernel/zero allocs/op 1.00 exceeds locked ceiling 0.00") {
		t.Errorf("zero-cell regression not reported:\n%s", all)
	}
}

func TestBudgetRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bp := filepath.Join(dir, "budget.json")
	writeJSON(t, bp, map[string]any{"schema": "something/else", "cells": map[string]any{"x": map[string]any{}}})
	if _, err := CheckBudget(dir, bp); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Errorf("bad schema accepted: %v", err)
	}
	writeJSON(t, bp, budgetJSON(map[string]BudgetCell{"x": {}}))
	if _, err := CheckBudget(dir, bp); err == nil || !strings.Contains(err.Error(), "no BENCH_") {
		t.Errorf("missing reports accepted: %v", err)
	}
	// Quick-mode reports must be rejected outright, not silently gated.
	q := benchJSON(0, []cellSpec{{"x", 0, 0}})
	q["quick"] = true
	writeJSON(t, filepath.Join(dir, "BENCH_0.json"), q)
	if _, err := CheckBudget(dir, bp); err == nil || !strings.Contains(err.Error(), "quick-mode") {
		t.Errorf("quick-mode report accepted: %v", err)
	}
}

func TestDriftAllocRegression(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "BENCH_0.json"), benchJSON(0, []cellSpec{
		{"kernel/zero", 0, 1000},
		{"e2e/busy", 100000, 0},
	}))
	writeJSON(t, filepath.Join(dir, "BENCH_1.json"), benchJSON(1, []cellSpec{
		{"kernel/zero", 0, 900}, // −10%: unlocked cells tolerate noise
		{"e2e/busy", 101000, 0}, // +1%: inside the nonzero-cell slack
	}))
	diags, err := CheckDrift(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := fatalCount(diags); n != 0 {
		t.Fatalf("clean trajectory failed drift gate:\n%s", diagLines(diags))
	}

	// 0 → 1 alloc must fail even though the relative rise is small in
	// absolute terms; 101000 → 104000 (+3%) exceeds the slack for the
	// consecutive pair.
	writeJSON(t, filepath.Join(dir, "BENCH_2.json"), benchJSON(2, []cellSpec{
		{"kernel/zero", 1, 900},
		{"e2e/busy", 104000, 0},
	}))
	diags, err = CheckDrift(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := diagLines(diags)
	if !strings.Contains(all, "kernel/zero: allocs/op rose 0.00 → 1.00") {
		t.Errorf("zero-cell alloc regression not reported:\n%s", all)
	}
	if !strings.Contains(all, "e2e/busy: allocs/op rose 101000.00 → 104000.00") {
		t.Errorf("over-slack alloc growth not reported:\n%s", all)
	}
}

// TestDriftSocketCellsJudgedByCeiling: a socket cell's allocations
// depend on scheduling, so a rise between reports is listed, not failed;
// its ALLOC_BUDGET.json ceiling still gates it.
func TestDriftSocketCellsJudgedByCeiling(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "BENCH_0.json"), benchJSON(0, []cellSpec{
		{"e2e/UDPFetch2x1MiB", 26, 0},
		{"e2e/busy", 100000, 0},
	}))
	writeJSON(t, filepath.Join(dir, "BENCH_1.json"), benchJSON(1, []cellSpec{
		{"e2e/UDPFetch2x1MiB", 31, 0}, // +19 %
		{"e2e/busy", 104000, 0},       // +4 %: still a failure
	}))
	diags, err := CheckDrift(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := diagLines(diags)
	if fatalCount(diags) != 1 || !strings.Contains(all, "e2e/busy: allocs/op rose") {
		t.Errorf("the simulator cell's rise must be the only failure:\n%s", all)
	}
	if !strings.Contains(all, "e2e/UDPFetch2x1MiB: allocs/op rose 26.00 → 31.00") {
		t.Errorf("the socket cell's rise must still be listed:\n%s", all)
	}

	bp := filepath.Join(dir, "budget.json")
	writeJSON(t, bp, budgetJSON(map[string]BudgetCell{
		"e2e/UDPFetch2x1MiB": {AllocsPerOp: 30},
		"e2e/busy":           {AllocsPerOp: 110000},
	}))
	diags, err = CheckBudget(dir, bp)
	if err != nil {
		t.Fatal(err)
	}
	if all := diagLines(diags); fatalCount(diags) != 1 || !strings.Contains(all, "e2e/UDPFetch2x1MiB allocs/op 31.00 exceeds locked ceiling 30.00") {
		t.Errorf("the socket cell over its ceiling must fail the budget gate:\n%s", all)
	}
}

// TestDriftThroughputLockIsOptIn: a report_mbps cell's MB/s drop or rise
// is listed as information, never fatal — time drifts with the host,
// allocation counts do not — and a cell without report_mbps is not even
// listed.
func TestDriftThroughputLockIsOptIn(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "BENCH_0.json"), benchJSON(0, []cellSpec{
		{"kernel/reported", 0, 1000},
		{"kernel/faster", 0, 1000},
		{"kernel/noisy", 0, 1000},
	}))
	writeJSON(t, filepath.Join(dir, "BENCH_1.json"), benchJSON(1, []cellSpec{
		{"kernel/reported", 0, 800}, // −20%
		{"kernel/faster", 0, 2500},  // +150%
		{"kernel/noisy", 0, 500},    // −50%
	}))
	budget := budgetJSON(map[string]BudgetCell{
		"kernel/reported": {AllocsPerOp: 0, ReportMBps: true},
		"kernel/faster":   {AllocsPerOp: 0, ReportMBps: true},
		"kernel/noisy":    {AllocsPerOp: 0}, // no report_mbps
	})

	diags, err := CheckDrift(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	all := diagLines(diags)
	if !strings.Contains(all, "kernel/reported: MB/s fell 1000.0 → 800.0") {
		t.Errorf("report_mbps throughput drop not reported:\n%s", all)
	}
	if !strings.Contains(all, "kernel/faster: MB/s rose 1000.0 → 2500.0 (+150%") {
		t.Errorf("report_mbps throughput rise not reported:\n%s", all)
	}
	if n := fatalCount(diags); n != 0 {
		t.Errorf("a throughput drop must be a report, not a failure:\n%s", all)
	}
	if strings.Contains(all, "kernel/noisy: MB/s") {
		t.Errorf("unreported cell's throughput noise must not be listed:\n%s", all)
	}

	// Without a budget no cell is reported at all.
	diags, err = CheckDrift(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(diagLines(diags), "MB/s") {
		t.Errorf("nil budget must disable throughput reports:\n%s", diagLines(diags))
	}
}

func TestDriftCellChurnIsInformational(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "BENCH_0.json"), benchJSON(0, []cellSpec{
		{"old/cell", 1, 10},
	}))
	writeJSON(t, filepath.Join(dir, "BENCH_1.json"), benchJSON(1, []cellSpec{
		{"new/cell", 1, 10},
	}))
	diags, err := CheckDrift(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fatalCount(diags) != 0 {
		t.Fatalf("cell churn must not be fatal:\n%s", diagLines(diags))
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, `"new/cell" is new`) || !strings.Contains(joined, `"old/cell" from`) {
		t.Errorf("appearing/disappearing cells not surfaced: %s", joined)
	}
}

// TestRepoBudgetLocksHold runs the real gates over the checked-in
// trajectory and ALLOC_BUDGET.json: the committed state must pass. Only
// allocations can fail it; throughput drift is reported.
func TestRepoBudgetLocksHold(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bp, dir := filepath.Join(root, BudgetFile), filepath.Join(root, BenchDir)
	diags, err := CheckBudget(dir, bp)
	if err != nil {
		t.Fatal(err)
	}
	if n := fatalCount(diags); n != 0 {
		t.Errorf("checked-in budget violated:\n%s", diagLines(diags))
	}
	// Every benchmark cell must be locked: the informational "no locked
	// budget" note is a to-do, and the committed tree must have none.
	for _, d := range diags {
		if strings.Contains(d.Message, "no locked budget") {
			t.Errorf("unlocked benchmark cell: %s", d.Message)
		}
	}
	budget, err := LoadBudget(bp)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := CheckDrift(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	if n := fatalCount(drift); n != 0 {
		t.Errorf("checked-in trajectory violates drift gate:\n%s", diagLines(drift))
	}
	// A socket cell is gated by its ceiling alone, so the ceiling must stay
	// close to what the cell measures.
	reports, err := benchTrajectory(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest := reports[len(reports)-1]
	for name, cell := range budget.Cells {
		allocs, _, ok := latest.cell(name)
		if ok && strings.HasPrefix(name, socketCells) && cell.AllocsPerOp > 4*allocs {
			t.Errorf("%s: ceiling %.0f is over 4x the %.2f allocs/op %s measured; lower it", name, cell.AllocsPerOp, allocs, latest.path)
		}
	}
}
