package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// series maps a Prometheus sample key (name plus its label set, exactly
// as exposed) to its value.
type series map[string]float64

// parseProm reads the text exposition format, skipping comments. Only
// the samples the benchmark cross-checks are kept (names starting with
// one of crossSeries).
func parseProm(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		keep := false
		for _, p := range crossSeries {
			if strings.HasPrefix(line, p) {
				keep = true
				break
			}
		}
		if !keep {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:sp]] += v
	}
	return out, sc.Err()
}

// crossSeries are the program's own counters the benchmark reports as
// deltas over the measured window (histograms by their _count and _sum).
var crossSeries = []string{
	"pivote_engine_stage_seconds_count",
	"pivote_expand_seconds_count",
	"pivote_eval_cache_total",
	"pivote_router_scatter_seconds_count",
	"pivote_router_retries_total",
	"pivote_router_genreread_total",
	"pivote_live_swaps_total",
	"pivote_live_compaction_seconds_count",
	"pivote_live_compaction_seconds_sum",
}

// scrape fetches and parses one process's /metrics.
func scrape(client *http.Client, base string) (series, error) {
	c := *client
	c.Timeout = 10 * time.Second
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// delta returns after − before per key, summed over processes by the
// caller; keys absent before count from zero.
func delta(before, after series) series {
	d := series{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func (s series) add(o series) {
	for k, v := range o {
		s[k] += v
	}
}

// get returns the value of name{labels} (labels in exposition order,
// e.g. `method="ppr"`), or of the unlabelled name when labels is empty.
func (s series) get(name, labels string) float64 {
	if labels == "" {
		return s[name]
	}
	return s[name+"{"+labels+"}"]
}

// sum adds every sample of a family (all label sets).
func (s series) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// keys lists the non-zero samples in a stable order, for the report.
func (s series) keys() []string {
	var ks []string
	for k, v := range s {
		if v != 0 {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

// pprShare is the program's own PPR-fallback share: PPR expansions per
// structured evaluation (every structured evaluation runs exactly one
// of the features or score entry points; the fallback runs after it).
func pprShare(d series) float64 {
	structured := d.get("pivote_expand_seconds_count", `method="features"`) +
		d.get("pivote_expand_seconds_count", `method="score"`)
	if structured == 0 {
		return 0
	}
	return d.get("pivote_expand_seconds_count", `method="ppr"`) / structured
}

// memoHitFrac is the share of state evaluations served from the memo.
func memoHitFrac(d series) float64 {
	hit := d.get("pivote_eval_cache_total", `result="hit"`)
	miss := d.get("pivote_eval_cache_total", `result="miss"`)
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}
