package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// runAgree is the check the benchmark is accepted by: two sets of runs of
// the same code, each workload run `runs` times per set at seeds seed,
// seed+1, ..., the second set in reverse workload order. Per workload and
// end-to-end metric it prints both medians, the spread of each set (the
// distance between the first and third quartile as a share of the median)
// and passes when every spread except setup_s's stays within the metric's
// bound and the second median is not worse than the first by more than the
// bound. Every run is its own process, as the driver runs them, because
// setup_s and peak_rss_mb are per process.
func runAgree(cfg runConfig, runs int) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for set := range sets {
		sets[set] = map[key][]float64{}
		order := workloadNames()
		if set == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			for r := 0; r < runs; r++ {
				args := []string{
					"-workload", w, "-seed", strconv.FormatInt(cfg.seed+int64(r), 10),
					"-seconds", strconv.Itoa(cfg.seconds), "-scratch", cfg.scratch,
				}
				if cfg.smoke {
					args = append(args, "-smoke")
				}
				line, err := runChild(self, args)
				if err != nil {
					return false, fmt.Errorf("set %d %s run %d: %w", set+1, w, r, err)
				}
				if !line.Correct {
					return false, fmt.Errorf("set %d %s run %d: %d of %d operations failed", set+1, w, r, line.Failed, line.Attempted)
				}
				for name, m := range line.Metrics {
					sets[set][key{w, name}] = append(sets[set][key{w, name}], m.Value)
				}
				fmt.Printf("set %d %-14s seed %-3d", set+1, w, cfg.seed+int64(r))
				for _, d := range endToEnd {
					fmt.Printf(" %s=%.6g", d.Name, line.Metrics[d.Name].Value)
				}
				fmt.Println()
			}
		}
	}

	ok := true
	fmt.Printf("\n%-14s %-16s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median1", "median2", "spread1", "spread2", "shift", "bound", "verdict")
	for _, w := range workloadNames() {
		for _, d := range endToEnd {
			a, b := sets[0][key{w, d.Name}], sets[1][key{w, d.Name}]
			bd := bounds[d.Name]
			m1, m2 := quartiles(a)[1], quartiles(b)[1]
			s1, s2 := spread(a), spread(b)
			// shift > 0 means the second set is worse.
			shift := (m2 - m1) / m1
			if bd.higherIsBetter {
				shift = -shift
			}
			verdict := "ok"
			if d.Name != "setup_s" && (s1 > bd.share || s2 > bd.share) {
				verdict, ok = "SPREAD", false
			}
			if shift > bd.share {
				verdict, ok = "SHIFT", false
			}
			fmt.Printf("%-14s %-16s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				w, d.Name, m1, m2, 100*s1, 100*s2, 100*shift, 100*bd.share, verdict)
		}
	}
	if ok {
		fmt.Println("agree: PASS")
	} else {
		fmt.Println("agree: FAIL")
	}
	return ok, nil
}

// runChild runs the harness once and parses the last line of its output.
func runChild(self string, args []string) (*finalLine, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line finalLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &line, nil
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method: position i·(n+1)/4 in the sorted values, interpolated), which is
// what the driver measures a metric's spread with.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	// Python: m = n+1; j = clamp(i*m // 4, 1, n-1); delta = i*m - j*4.
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}
