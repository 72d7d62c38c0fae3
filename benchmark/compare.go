package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of comparing one metric on one workload between two sets.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares b against a for one metric. The bound is a share of a's
// median; a metric whose run-to-run spread (in either set) is wider than
// its bound cannot be told apart from noise and is unresolved, not
// unchanged. Per-layer metrics have no bound and no verdict.
func judge(d metricDef, a, b []float64) (delta float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	if d.Bound == 0 {
		return delta, ""
	}
	worse := delta
	if d.Better == higher {
		worse = -delta
	}
	switch {
	case worse > d.Bound:
		return delta, verdictRegressed
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return delta, verdictUnresolved
	default:
		return delta, verdictOK
	}
}

func readSet(path string) (*set, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints, per workload and metric, both medians, the change and
// the bound, and reports whether any end-to-end metric regressed.
func compareSets(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	if a.Trace != b.Trace || a.Seconds != b.Seconds {
		return false, fmt.Errorf("sets differ in kind: trace %d/%d, seconds %g/%g", a.Trace, b.Trace, a.Seconds, b.Seconds)
	}
	var names []string
	for name := range a.Values {
		if b.Values[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "== %s (%d vs %d runs)\n%-34s %12s %12s %8s %7s %7s %7s  %s\n", name,
			len(a.Seeds), len(b.Seeds), "metric", "median a", "median b", "change", "bound", "iqr a", "iqr b", "verdict")
		for _, d := range defsFor(a.Trace == 1) {
			va, vb := a.Values[name][d.Name], b.Values[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			delta, verdict := judge(d, va, vb)
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.1f%%", 100*d.Bound)
			}
			fmt.Fprintf(w, "%-34s %12.4f %12.4f %+7.2f%% %7s %6.2f%% %6.2f%%  %s\n", d.Name,
				median(va), median(vb), 100*delta, bound, 100*spread(va), 100*spread(vb), verdict)
			regressed = regressed || verdict == verdictRegressed
		}
	}
	return regressed, nil
}
