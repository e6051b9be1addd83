package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wavepipe"
)

func writeDeck(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "deck.sp")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const simDeck = `wavesim test deck
V1 in 0 DC 0 AC 1 SIN(0 1 100k)
R1 in out 1k
C1 out 0 1n
.ac dec 5 1k 10meg
.dc V1 0 1 0.5
.tran 0.1u 30u
.end
`

func runCfg(t *testing.T, cfg runConfig) error {
	t.Helper()
	return run(context.Background(), cfg)
}

func runToFile(t *testing.T, analysis, scheme, deckPath string) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.csv")
	err := runCfg(t, runConfig{
		deckPath: deckPath, analysis: analysis, scheme: scheme,
		method: "gear2", probes: "out", outPath: out, threads: 2,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", analysis, scheme, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunTransientAllSchemes(t *testing.T) {
	deck := writeDeck(t, simDeck)
	for _, scheme := range []string{"serial", "backward", "forward", "combined", "finegrain"} {
		csv := runToFile(t, "tran", scheme, deck)
		lines := strings.Split(strings.TrimSpace(csv), "\n")
		if lines[0] != "time,out" {
			t.Fatalf("%s: header %q", scheme, lines[0])
		}
		if len(lines) < 50 {
			t.Fatalf("%s: only %d rows", scheme, len(lines))
		}
	}
}

func TestRunACAndDC(t *testing.T) {
	deck := writeDeck(t, simDeck)
	csv := runToFile(t, "ac", "serial", deck)
	if !strings.HasPrefix(csv, "freq,out_db,out_deg") {
		t.Fatalf("ac header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	csv = runToFile(t, "dc", "serial", deck)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "time,out" || len(lines) != 4 {
		t.Fatalf("dc output: %v", lines)
	}
}

func TestRunErrors(t *testing.T) {
	deck := writeDeck(t, simDeck)
	base := runConfig{deckPath: deck, analysis: "tran", scheme: "serial", method: "gear2"}
	cases := []struct {
		name string
		mut  func(*runConfig)
	}{
		{"bad scheme", func(c *runConfig) { c.scheme = "bogus" }},
		{"bad analysis", func(c *runConfig) { c.analysis = "bogus" }},
		{"bad method", func(c *runConfig) { c.method = "bogus" }},
		{"bad tstop", func(c *runConfig) { c.tstop = "zz" }},
		{"bad interval", func(c *runConfig) { c.interval = "zz" }},
		{"missing deck", func(c *runConfig) { c.deckPath = "/nonexistent.sp" }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if cfg.outPath == "" {
			cfg.outPath = filepath.Join(t.TempDir(), "out.csv")
		}
		if err := runCfg(t, cfg); err == nil {
			t.Fatalf("%s must fail", tc.name)
		}
	}
}

func TestResampledOutput(t *testing.T) {
	deck := writeDeck(t, simDeck)
	out := filepath.Join(t.TempDir(), "o.csv")
	err := runCfg(t, runConfig{
		deckPath: deck, analysis: "tran", scheme: "serial", method: "gear2",
		tstop: "10u", probes: "out", outPath: out, interval: "1u",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 12 { // header + t=0,1u,...,10u inclusive
		t.Fatalf("resampled rows = %d", len(lines))
	}
	if !strings.HasPrefix(lines[2], "1e-06,") {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestTstopOverrideAndMethods(t *testing.T) {
	deck := writeDeck(t, simDeck)
	out := filepath.Join(t.TempDir(), "o.csv")
	for _, method := range []string{"gear2", "trap", "be"} {
		err := runCfg(t, runConfig{
			deckPath: deck, analysis: "tran", scheme: "serial", method: method,
			tstop: "5u", probes: "out", outPath: out, stats: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		data, _ := os.ReadFile(out)
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		last := strings.SplitN(lines[len(lines)-1], ",", 2)[0]
		if !strings.HasPrefix(last, "5e-06") && !strings.HasPrefix(last, "4.99") {
			t.Fatalf("%s: tstop override not honoured, last t=%s", method, last)
		}
	}
}

// TestCanceledRun checks the cancellation plumbing end to end at the CLI
// layer: a canceled context surfaces as ErrCanceled (exit code 8), and the
// partial waveform and trace are still written.
func TestCanceledRun(t *testing.T) {
	deck := writeDeck(t, simDeck)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.csv")
	trace := filepath.Join(dir, "run.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first time point
	err := run(ctx, runConfig{
		deckPath: deck, analysis: "tran", scheme: "serial", method: "gear2",
		probes: "out", outPath: out, tracePath: trace,
	})
	if !errors.Is(err, wavepipe.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if got := exitCodeFor(err); got != exitCanceled {
		t.Fatalf("exit code = %d, want %d", got, exitCanceled)
	}
	data, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !strings.HasPrefix(string(data), "time,out") {
		t.Fatalf("partial waveform not written: %q", string(data))
	}
	if _, rerr := os.Stat(trace); rerr != nil {
		t.Fatalf("trace not written on cancellation: %v", rerr)
	}
}

// TestTraceFlagOutputs exercises -trace in both formats: a .jsonl path gets
// one JSON object per line, anything else a Chrome trace_event document.
func TestTraceFlagOutputs(t *testing.T) {
	deck := writeDeck(t, simDeck)
	dir := t.TempDir()

	jsonl := filepath.Join(dir, "run.jsonl")
	err := runCfg(t, runConfig{
		deckPath: deck, analysis: "tran", scheme: "combined", method: "gear2",
		tstop: "5u", probes: "out", outPath: filepath.Join(dir, "a.csv"),
		threads: 4, tracePath: jsonl,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 10 {
		t.Fatalf("jsonl trace suspiciously short: %d lines", len(lines))
	}
	for i, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i+1, err)
		}
		if ty := rec["type"]; ty != "event" && ty != "snapshot" {
			t.Fatalf("line %d: unexpected type %v", i+1, ty)
		}
	}

	chrome := filepath.Join(dir, "run.json")
	err = runCfg(t, runConfig{
		deckPath: deck, analysis: "tran", scheme: "serial", method: "gear2",
		tstop: "5u", probes: "out", outPath: filepath.Join(dir, "b.csv"),
		tracePath: chrome,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc []map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	if len(doc) < 10 {
		t.Fatalf("chrome trace suspiciously short: %d events", len(doc))
	}
	for i, ce := range doc {
		if _, ok := ce["ph"].(string); !ok {
			t.Fatalf("event %d missing ph: %v", i, ce)
		}
	}
}
