// benchdiff compares two benchmark snapshots produced by bench.sh
// (raw `go test -json` event streams) and prints per-benchmark deltas
// for ns/op, B/op, and allocs/op, averaged across -count repetitions.
//
//	benchdiff [-threshold pct] old.json new.json
//
// With a non-negative -threshold, any benchmark whose ns/op, B/op, or
// allocs/op grew by more than pct percent is a regression: benchdiff
// lists it and exits 1 — the CI shape. Memory metrics are gated only
// when both snapshots report them (the benchmark ran with -benchmem),
// and an allocs/op growth under one allocation per op is tolerated as
// counter noise. A negative threshold disables gating (report only),
// which is the right mode for comparing snapshots from different
// machines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of the go-test-json schema benchdiff reads.
type event struct {
	Action  string
	Package string
	Output  string
}

// metrics holds one benchmark's averaged results.
type metrics struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	hasBytes    bool
	hasAllocs   bool
	samples     int
}

// parseFile reads a go-test-json stream and returns benchmark name →
// averaged metrics. Benchmark result lines are split across multiple
// "output" events, so the Output fields are concatenated per package
// before line parsing.
func parseFile(path string) (map[string]*metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	byPkg := map[string]*strings.Builder{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate trailing noise
		}
		if ev.Action != "output" {
			continue
		}
		b := byPkg[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			byPkg[ev.Package] = b
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := map[string]*metrics{}
	for pkg, b := range byPkg {
		for _, line := range strings.Split(b.String(), "\n") {
			name, m, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			key := pkg + "." + name
			if prev, ok := out[key]; ok {
				// Running mean across -count repetitions.
				n := float64(prev.samples)
				prev.nsPerOp = (prev.nsPerOp*n + m.nsPerOp) / (n + 1)
				prev.bytesPerOp = (prev.bytesPerOp*n + m.bytesPerOp) / (n + 1)
				prev.allocsPerOp = (prev.allocsPerOp*n + m.allocsPerOp) / (n + 1)
				prev.samples++
			} else {
				m.samples = 1
				out[key] = m
			}
		}
	}
	return out, nil
}

// parseBenchLine parses one `Benchmark<name>-P  N  <value> <unit> ...`
// result line. The GOMAXPROCS suffix is stripped so snapshots from
// machines with different core counts still align.
func parseBenchLine(line string) (string, *metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	m := &metrics{}
	found := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		switch fields[i+1] {
		case "ns/op":
			m.nsPerOp = v
			found = true
		case "B/op":
			m.bytesPerOp = v
			m.hasBytes = true
		case "allocs/op":
			m.allocsPerOp = v
			m.hasAllocs = true
		}
	}
	if !found {
		return "", nil, false
	}
	return name, m, true
}

func pctDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return (new - old) / old * 100
}

func fmtDelta(old, new float64) string {
	return fmt.Sprintf("%+.1f%%", pctDelta(old, new))
}

func main() {
	threshold := flag.Float64("threshold", 10,
		"ns/op regression threshold in percent; negative disables gating (report only)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold pct] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if len(old) == 0 || len(cur) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmark results parsed (old %d, new %d)\n", len(old), len(cur))
		os.Exit(2)
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-64s %14s %14s %8s %12s %8s %10s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "Δns/op", "B/op", "ΔB", "allocs/op", "Δallocs")

	var regressions []string
	onlyNew := 0
	for _, name := range names {
		n := cur[name]
		o, ok := old[name]
		if !ok {
			onlyNew++
			fmt.Fprintf(w, "%-64s %14s %14.0f %8s %12.0f %8s %10.1f %8s\n",
				trim(name, 64), "-", n.nsPerOp, "new", n.bytesPerOp, "-", n.allocsPerOp, "-")
			continue
		}
		bytesNew, bytesDelta := "-", "-"
		if o.hasBytes && n.hasBytes {
			bytesNew = fmt.Sprintf("%.0f", n.bytesPerOp)
			bytesDelta = fmtDelta(o.bytesPerOp, n.bytesPerOp)
		}
		allocsNew, allocsDelta := "-", "-"
		if o.hasAllocs && n.hasAllocs {
			allocsNew = fmt.Sprintf("%.1f", n.allocsPerOp)
			allocsDelta = fmtDelta(o.allocsPerOp, n.allocsPerOp)
		}
		fmt.Fprintf(w, "%-64s %14.0f %14.0f %8s %12s %8s %10s %8s\n",
			trim(name, 64), o.nsPerOp, n.nsPerOp, fmtDelta(o.nsPerOp, n.nsPerOp),
			bytesNew, bytesDelta, allocsNew, allocsDelta)
		regressions = append(regressions, gate(name, o, n, *threshold)...)
	}
	dropped := 0
	for name := range old {
		if _, ok := cur[name]; !ok {
			dropped++
		}
	}
	fmt.Fprintf(w, "\n%d benchmarks compared, %d only in new, %d only in old\n",
		len(cur)-onlyNew, onlyNew, dropped)

	if len(regressions) > 0 {
		w.Flush()
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d regression(s):\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
}

// gate returns the regression lines for one benchmark: ns/op always,
// B/op and allocs/op when both snapshots measured them. All three share
// the one threshold. An allocs/op increase below one whole allocation
// per op never gates — tiny averaged counts (0.1 → 0.2) are pool-warmup
// noise, not a leak.
func gate(name string, o, n *metrics, threshold float64) []string {
	if threshold < 0 {
		return nil
	}
	var out []string
	if pctDelta(o.nsPerOp, n.nsPerOp) > threshold {
		out = append(out, fmt.Sprintf("%s: %.0f → %.0f ns/op (%s, threshold %.1f%%)",
			name, o.nsPerOp, n.nsPerOp, fmtDelta(o.nsPerOp, n.nsPerOp), threshold))
	}
	if o.hasBytes && n.hasBytes && pctDelta(o.bytesPerOp, n.bytesPerOp) > threshold {
		out = append(out, fmt.Sprintf("%s: %.0f → %.0f B/op (%s, threshold %.1f%%)",
			name, o.bytesPerOp, n.bytesPerOp, fmtDelta(o.bytesPerOp, n.bytesPerOp), threshold))
	}
	if o.hasAllocs && n.hasAllocs &&
		pctDelta(o.allocsPerOp, n.allocsPerOp) > threshold &&
		n.allocsPerOp-o.allocsPerOp >= 1 {
		out = append(out, fmt.Sprintf("%s: %.1f → %.1f allocs/op (%s, threshold %.1f%%)",
			name, o.allocsPerOp, n.allocsPerOp, fmtDelta(o.allocsPerOp, n.allocsPerOp), threshold))
	}
	return out
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n+1:]
}
