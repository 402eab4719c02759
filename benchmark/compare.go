package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// loadRuns reads saved benchmark output — the standard output of one
// or more runs, concatenated — and groups the result lines by the
// workload named in the header line before each.
func loadRuns(path string) (map[string][]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]Result{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "workload="):
			workload = strings.TrimPrefix(strings.Fields(line)[0], "workload=")
		case strings.HasPrefix(line, "{"):
			var r Result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if workload == "" {
				return nil, fmt.Errorf("%s: result line before any workload= header", path)
			}
			runs[workload] = append(runs[workload], r)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median (NaN for
// fewer than two runs or a zero median).
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// compareFiles prints, per workload and metric, the median of the OLD
// and NEW runs, the change, and each side's run-to-run spread; a change
// larger than both spreads is flagged, and each per-layer metric names
// the end-to-end metric it should move.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRuns, err := loadRuns(oldPath)
	if err != nil {
		return err
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		return err
	}
	defs := append(append([]Metric(nil), endToEnd...), perLayer()...)
	var names []string
	for wl := range oldRuns {
		if _, ok := newRuns[wl]; ok {
			names = append(names, wl)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload appears in both files")
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, wl := range names {
		olds, news := oldRuns[wl], newRuns[wl]
		fmt.Fprintf(tw, "workload %s: %d old runs, %d new runs\n", wl, len(olds), len(news))
		fmt.Fprintln(tw, "metric\tunit\told\tnew\tchange\told spread\tnew spread\t\tshould move")
		for _, m := range defs {
			ov, ok1 := values(olds, m.Name)
			nv, ok2 := values(news, m.Name)
			if !ok1 || !ok2 {
				continue
			}
			om, nm := median(ov), median(nv)
			change := math.NaN()
			if om != 0 {
				change = (nm - om) / math.Abs(om)
			}
			so, sn := spread(ov), spread(nv)
			flag := ""
			if math.Abs(change) > math.Max(nanZero(so), nanZero(sn)) && !(om == 0 && nm == 0) {
				flag = "*"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, om, nm,
				pct("%+.1f%%", change), pct("%.1f%%", so), pct("%.1f%%", sn), flag, m.Moves)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw, "* the change exceeds both sides' spread (interquartile range over median)")
	return tw.Flush()
}

func values(runs []Result, name string) ([]float64, bool) {
	var xs []float64
	for _, r := range runs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		xs = append(xs, v.Value)
	}
	return xs, true
}

func nanZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// pct formats a share as a percentage ("-" when undefined).
func pct(format string, x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf(format, x*100)
}
