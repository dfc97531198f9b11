package main

import (
	"runtime"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: puppies
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEncryptThroughput-4 	    3433	    681571 ns/op	 865.39 MB/s	 2365632 B/op	      53 allocs/op
BenchmarkTable5EncDecTime-4 	       1	 412534317 ns/op	        11.54 inria-ms	         0.8863 pascal-ms
PASS
ok  	puppies	5.109s
goos: linux
goarch: amd64
pkg: puppies/internal/psp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkUploadBatch-4 	     100	    900000 ns/op
PASS
loadgen: seed=42 mode=closed duration=8.00s ops=9000 unexpected=0 sheds=36 retries=4
pkg: load
BenchmarkLoadHotGet-4 	5000	800000 ns/op	4000000 p99-ns	1 ok-per-op
`

func TestParse(t *testing.T) {
	l, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	results := l.Rows
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(results))
	}
	// Sorted by name; -GOMAXPROCS suffix stripped.
	if results[0].Name != "BenchmarkEncryptThroughput" {
		t.Errorf("name %q, want suffix-stripped BenchmarkEncryptThroughput", results[0].Name)
	}
	if results[0].NsPerOp != 681571 || results[0].MBPerS != 865.39 || results[0].AllocsPerOp != 53 {
		t.Errorf("unexpected measurements: %+v", results[0])
	}
	if got := results[2].Metrics["inria-ms"]; got != 11.54 {
		t.Errorf("custom metric inria-ms = %v, want 11.54", got)
	}
}

// TestParseMachineAndLayer: the ledger is stamped with the cpu: header, the
// GOMAXPROCS suffix and the Go version, and each row carries the last
// element of the pkg: header above it (load for loadgen's rows).
func TestParseMachineAndLayer(t *testing.T) {
	l, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := Machine{CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", GOMAXPROCS: 4, Go: runtime.Version()}
	if l.Machine != want {
		t.Errorf("machine %+v, want %+v", l.Machine, want)
	}
	layers := map[string]string{
		"BenchmarkEncryptThroughput": "puppies",
		"BenchmarkTable5EncDecTime":  "puppies",
		"BenchmarkUploadBatch":       "psp",
		"BenchmarkLoadHotGet":        "load",
	}
	for _, r := range l.Rows {
		if r.Layer != layers[r.Name] {
			t.Errorf("%s: layer %q, want %q", r.Name, r.Layer, layers[r.Name])
		}
	}

	// Without a suffix a benchmark ran at GOMAXPROCS 1; rows measured at
	// different settings do not belong in one ledger.
	l, err = parse(strings.NewReader("BenchmarkA 10 5 ns/op\n"))
	if err != nil || l.Machine.GOMAXPROCS != 1 {
		t.Errorf("unsuffixed row: machine %+v, err %v; want GOMAXPROCS 1", l.Machine, err)
	}
	if _, err := parse(strings.NewReader("BenchmarkA-2 10 5 ns/op\nBenchmarkB-4 10 5 ns/op\n")); err == nil {
		t.Error("rows at GOMAXPROCS 2 and 4 parsed into one ledger")
	}
}

// TestParseBestOfN: with -count N a benchmark appears N times; the report
// keeps the fastest whole line (not per-metric minima across lines).
func TestParseBestOfN(t *testing.T) {
	const repeated = `BenchmarkX-4 	     100	    2000 ns/op	      60 allocs/op
BenchmarkX-4 	     100	    1000 ns/op	      80 allocs/op
BenchmarkX-4 	     100	    3000 ns/op	      40 allocs/op
`
	l, err := parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	results := l.Rows
	if len(results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(results))
	}
	if results[0].NsPerOp != 1000 {
		t.Errorf("ns/op = %v, want the fastest run's 1000", results[0].NsPerOp)
	}
	if results[0].AllocsPerOp != 80 {
		t.Errorf("allocs/op = %v, want the fastest run's own 80", results[0].AllocsPerOp)
	}
}

func ledger(rows ...Result) Ledger {
	return Ledger{Machine: Machine{CPU: "test", GOMAXPROCS: 2, Go: "go1"}, Rows: rows}
}

func row(name string, ns, allocs float64) Result {
	return Result{Name: name, Iterations: 1, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestCompare(t *testing.T) {
	oldL := ledger(row("BenchmarkA", 1000, 0), row("BenchmarkB", 1000, 0))
	newOK := ledger(row("BenchmarkA", 1050, 0), row("BenchmarkB", 500, 0))
	newBad := ledger(row("BenchmarkA", 1200, 0), row("BenchmarkB", 1000, 0))

	var sb strings.Builder
	if compare(oldL, newOK, &sb) {
		t.Fatalf("5%% slowdown flagged as regression:\n%s", sb.String())
	}

	sb.Reset()
	if !compare(oldL, newBad, &sb) {
		t.Fatalf("20%% slowdown not flagged:\n%s", sb.String())
	}

	// A baseline row missing from the candidate is a failure; a row only
	// in the candidate is listed but has nothing to regress against.
	sb.Reset()
	if !compare(oldL, ledger(row("BenchmarkA", 1000, 0), row("BenchmarkNew", 1, 0)), &sb) {
		t.Fatalf("baseline row missing from the candidate not flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "BenchmarkB") || !strings.Contains(sb.String(), "MISSING") {
		t.Errorf("output does not name the missing row:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "BenchmarkNew") {
		t.Errorf("candidate-only row not listed:\n%s", sb.String())
	}
	sb.Reset()
	if compare(ledger(row("BenchmarkA", 1000, 0)), ledger(row("BenchmarkA", 1000, 0), row("BenchmarkNew", 1, 0)), &sb) {
		t.Fatalf("candidate-only row failed the comparison:\n%s", sb.String())
	}
}

func TestCompareAllCommon(t *testing.T) {
	oldL := ledger(row("BenchmarkA", 1000, 100), row("BenchmarkB", 1000, 0))
	newOK := ledger(row("BenchmarkA", 900, 105), row("BenchmarkB", 1050, 0), row("BenchmarkNew", 1, 0))

	// Every row is compared; one only in the candidate is listed as new.
	var sb strings.Builder
	if compare(oldL, newOK, &sb) {
		t.Fatalf("within-threshold deltas flagged as regression:\n%s", sb.String())
	}
	for _, want := range []string{"BenchmarkA", "BenchmarkB", "BenchmarkNew", "new row, no baseline"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q:\n%s", want, sb.String())
		}
	}

	// An allocs/op regression beyond threshold fails even when ns/op improved.
	newAllocs := ledger(row("BenchmarkA", 500, 150), row("BenchmarkB", 1000, 0))
	sb.Reset()
	if !compare(oldL, newAllocs, &sb) {
		t.Fatalf("50%% allocs/op growth not flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION(allocs/op)") {
		t.Errorf("output does not name the allocs/op regression:\n%s", sb.String())
	}
}

func TestRatioGate(t *testing.T) {
	rows := map[string]Result{
		"BenchmarkSeq":   {Name: "BenchmarkSeq", NsPerOp: 2100},
		"BenchmarkBatch": {Name: "BenchmarkBatch", NsPerOp: 1000},
		"BenchmarkNorm":  {Name: "BenchmarkNorm", Metrics: map[string]float64{"coeff-bytes/op": 300}},
		"BenchmarkNat":   {Name: "BenchmarkNat", Metrics: map[string]float64{"coeff-bytes/op": 150}},
	}

	g, err := parseGate("BenchmarkNorm/BenchmarkNat>=1.5:coeff-bytes/op")
	if err != nil || g.unit != "coeff-bytes/op" {
		t.Fatalf("parsed %+v, %v", g, err)
	}
	if g, _ := parseGate("BenchmarkSeq/BenchmarkBatch>=2"); g.unit != "ns/op" {
		t.Fatalf("ratio without a unit defaults to %q, want ns/op", g.unit)
	}
	var sb strings.Builder
	if checkGates(rows, []string{"BenchmarkSeq/BenchmarkBatch>=2", "BenchmarkNorm/BenchmarkNat>=1.5:coeff-bytes/op"}, &sb) {
		t.Fatalf("satisfied ratios flagged as failure:\n%s", sb.String())
	}

	// A ratio below its bound fails.
	sb.Reset()
	if !checkGates(rows, []string{"BenchmarkSeq/BenchmarkBatch>=2.5"}, &sb) {
		t.Fatalf("2.1x below a 2.5x bound not flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "BOUND MISSED") {
		t.Errorf("output does not name the violation:\n%s", sb.String())
	}

	// A missing benchmark or metric fails rather than silently passing.
	for _, line := range []string{"BenchmarkSeq/BenchmarkMissing>=2", "BenchmarkSeq/BenchmarkBatch>=1:coeff-bytes/op"} {
		sb.Reset()
		if !checkGates(rows, []string{line}, &sb) || !strings.Contains(sb.String(), "MISSING") {
			t.Fatalf("%s: missing row or metric not flagged:\n%s", line, sb.String())
		}
	}

	// Malformed lines are rejected, and fail the table that holds them.
	for _, bad := range []string{"BenchmarkSeq>=2", "BenchmarkSeq=2:ns/op", "BenchmarkSeq/BenchmarkBatch>=x"} {
		if _, err := parseGate(bad); err == nil {
			t.Errorf("malformed gate %q accepted", bad)
		}
	}
	sb.Reset()
	if !checkGates(rows, []string{"BenchmarkSeq>=2"}, &sb) {
		t.Fatalf("malformed gate passed the table:\n%s", sb.String())
	}
}

// TestAbsoluteGate: ROW<=F:unit and ROW>=F:unit pass on their side of the
// bound, the bound itself included, and fail on the other.
func TestAbsoluteGate(t *testing.T) {
	rows := map[string]Result{
		"BenchmarkP": {Name: "BenchmarkP", BytesPerOp: 2_300_000, AllocsPerOp: 810,
			Metrics: map[string]float64{"recall-k10": 0.93}},
	}
	cases := []struct {
		line string
		fail bool
	}{
		{"BenchmarkP<=4194304:B/op", false},
		{"BenchmarkP<=2000000:B/op", true},
		{"BenchmarkP<=810:allocs/op", false},
		{"BenchmarkP<=809:allocs/op", true},
		{"BenchmarkP>=0.9:recall-k10", false},
		{"BenchmarkP>=0.95:recall-k10", true},
		{"BenchmarkQ<=1:allocs/op", true},
	}
	for _, c := range cases {
		var sb strings.Builder
		if got := checkGates(rows, []string{c.line}, &sb); got != c.fail {
			t.Errorf("%s: failed=%v, want %v:\n%s", c.line, got, c.fail, sb.String())
		}
	}
}

// TestGateTable: every line of the real table parses, and a ledger missing
// any row the table names fails the whole check.
func TestGateTable(t *testing.T) {
	rows := map[string]Result{}
	for _, line := range gates {
		g, err := parseGate(line)
		if err != nil {
			t.Fatalf("gate %q: %v", line, err)
		}
		for _, name := range []string{g.row, g.den} {
			if name != "" {
				rows[name] = Result{Name: name}
			}
		}
	}
	for name := range rows {
		partial := map[string]Result{}
		for n, r := range rows {
			if n != name {
				partial[n] = r
			}
		}
		var sb strings.Builder
		if !checkGates(partial, gates, &sb) {
			t.Fatalf("table passed a ledger without %s:\n%s", name, sb.String())
		}
		if !strings.Contains(sb.String(), "MISSING") {
			t.Fatalf("missing %s not reported:\n%s", name, sb.String())
		}
	}
}

func TestRatioGateSingleLoadgenReport(t *testing.T) {
	// The perf flow for the load layer: loadgen prints benchmark lines
	// and the table's absolute bounds check them from that one report —
	// no baseline needed.
	const lines = `pkg: load
BenchmarkLoadHotGet-2 5000 800000 ns/op 4000000 p99-ns 1 ok-per-op
BenchmarkLoadThumbnail-2 900 700000 ns/op 3000000 p99-ns 1 ok-per-op
BenchmarkLoadOverall-2 9000 900000 ns/op 1 ok-per-op 36 shed-count
`
	var load []string
	for _, line := range gates {
		if strings.HasPrefix(line, "BenchmarkLoad") {
			load = append(load, line)
		}
	}
	if len(load) != 3 {
		t.Fatalf("table has %d load gates, want 3: %v", len(load), load)
	}
	check := func(text string) bool {
		l, err := parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		return checkGates(l.byName(), load, &sb)
	}
	if check(lines) {
		t.Fatal("SLO-satisfying report flagged")
	}
	// A p99 over the 250 ms ceiling must fail.
	if !check(strings.Replace(lines, "4000000 p99-ns", "400000000 p99-ns", 1)) {
		t.Fatal("hot GET p99 over ceiling not flagged")
	}
	if !check(strings.Replace(lines, "3000000 p99-ns", "300000000 p99-ns", 1)) {
		t.Fatal("thumbnail p99 over ceiling not flagged")
	}
	// Any unexpected failure drops ok-per-op below 1 and must fail too.
	if !check(strings.Replace(lines, "900000 ns/op 1 ok-per-op", "900000 ns/op 0.9998 ok-per-op", 1)) {
		t.Fatal("ok-per-op below 1 not flagged")
	}
}
