package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunSelfhostWritesBenchRows(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-selfhost", "3", "-seed", "1", "-duration", "400ms", "-workers", "2",
		"-corpus", "3", "-max-unexpected", "0", "-report", rep,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	// The rows are Go benchmark lines under a `pkg: load` header, which
	// is what lets benchfmt tag them with the ledger's load layer.
	out := stdout.String()
	header := strings.Index(out, "\npkg: load\n")
	overall := regexp.MustCompile(`(?m)^BenchmarkLoadOverall(-\d+)?\t\d+\t\d+ ns/op\t1 ok-per-op\t`).FindStringIndex(out)
	if header < 0 || overall == nil || overall[0] < header {
		t.Fatalf("stdout lacks a pkg: load header followed by an all-ok BenchmarkLoadOverall row:\n%s", out)
	}
	if _, err := os.Stat(rep); err != nil {
		t.Fatalf("full report not written: %v", err)
	}
	if !strings.HasPrefix(out, "loadgen: seed=1") {
		t.Fatalf("summary missing from stdout: %s", out)
	}
}

func TestRunGatesFailWithoutSheds(t *testing.T) {
	// An uncontended run cannot shed; -require-sheds must turn that into a
	// non-zero exit rather than silently passing an unexercised gate.
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-selfhost", "1", "-seed", "2", "-duration", "200ms", "-workers", "1",
		"-corpus", "2", "-require-sheds",
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("want gate failure, got exit 0; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "no 429 shedding") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{}, // neither target nor selfhost
		{"-target", "http://x", "-selfhost", "3"}, // both
		{"-target", "http://x", "-chaos", "gate"}, // chaos without selfhost
		{"-selfhost", "3", "-mix", "bogus=1"},     // bad mix
	}
	for i, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("case %d (%v): exit %d, want 2; stderr: %s", i, args, code, stderr.String())
		}
	}
}

func TestRunLoadsChaosScheduleFromFile(t *testing.T) {
	dir := t.TempDir()
	sched := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(sched, []byte(`{"events":[
		{"at":"50ms","kind":"burst503","shard":0,"rate":1.0,"for":"100ms"}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-selfhost", "3", "-seed", "3", "-duration", "400ms", "-workers", "2",
		"-corpus", "2", "-chaos", sched, "-max-unexpected", "0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}

	// A schedule referencing a shard that does not exist must be refused.
	if err := os.WriteFile(sched, []byte(`{"events":[
		{"at":"50ms","kind":"partition","shard":9,"for":"100ms"}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code = run([]string{
		"-selfhost", "3", "-seed", "3", "-duration", "200ms", "-chaos", sched,
	}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("invalid schedule: exit %d, want 2; stderr: %s", code, stderr.String())
	}
}
