package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 98.9}, {500, 98}, {200, 95}, {100, 90}, {20, 50}, {19, 50}, {0, 50},
	} {
		got := tailPercentile(c.n, 99)
		if got != c.want {
			t.Errorf("tailPercentile(%d, 99) = %g, want %g", c.n, got, c.want)
		}
		if got > 50 && float64(c.n)*(100-got)/100 < minBeyond {
			t.Errorf("n=%d: p%g has fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestLatencySummary(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l.ms = append(l.ms, float64(i))
	}
	p50, tailP, tail := l.summary(99)
	if p50 != 500 || tailP != 99 || tail != 990 {
		t.Fatalf("summary = %g, p%g = %g; want 500, p99 = 990", p50, tailP, tail)
	}
}

func TestProcParsers(t *testing.T) {
	stat, err := os.ReadFile("testdata/proc_stat")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := parseStatCPU(string(stat))
	if err != nil {
		t.Fatal(err)
	}
	// utime 1234 + stime 567 ticks at 100 Hz.
	if cpu != 18010 {
		t.Errorf("cpu = %g ms, want 18010", cpu)
	}
	status, err := os.ReadFile("testdata/proc_status")
	if err != nil {
		t.Fatal(err)
	}
	hwm, err := parseStatusHWM(string(status))
	if err != nil || hwm != 361472 {
		t.Errorf("VmHWM = %d, %v; want 361472", hwm, err)
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("short stat line parsed")
	}
	if _, err := parseStatusHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	// The live parser agrees with the fixture format on this process.
	if _, err := readProc(os.Getpid()); err != nil {
		t.Errorf("readProc(self): %v", err)
	}
}

func TestParseProm(t *testing.T) {
	in := `# HELP pivote_expand_seconds x
pivote_expand_seconds_count{method="ppr"} 3
pivote_expand_seconds_count{method="features"} 20
pivote_expand_seconds_count{method="score"} 10
pivote_eval_cache_total{result="hit"} 9
pivote_eval_cache_total{result="miss"} 1
pivote_other_total 5
`
	s, err := parseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s["pivote_other_total"]; ok {
		t.Error("unlisted series kept")
	}
	if got := pprShare(s); got != 0.1 {
		t.Errorf("pprShare = %g, want 0.1", got)
	}
	if got := memoHitFrac(s); got != 0.9 {
		t.Errorf("memoHitFrac = %g, want 0.9", got)
	}
}

func TestTimelineLen(t *testing.T) {
	body := []byte(`{"description":"x","timeline":[{"step":1,"kind":"submit"},{"step":2,"kind":"lookup"}]}`)
	if n, err := timelineLen(body); n != 2 || err != nil {
		t.Errorf("timelineLen = %d, %v; want 2", n, err)
	}
	bad := []byte(`{"timeline":[{"step":1},{"step":3}]}`)
	if _, err := timelineLen(bad); err == nil {
		t.Error("misnumbered timeline accepted")
	}
}

func planKey(p *plan) []byte {
	var b bytes.Buffer
	for _, s := range p.sessions {
		for _, r := range s {
			b.WriteString(r.method + " " + r.path + "\n")
			b.Write(r.body)
			b.Write(r.want)
		}
	}
	for _, r := range p.batches {
		b.Write(r.body)
	}
	b.WriteString(p.probeKeywords)
	return b.Bytes()
}

func TestExplorePlanDeterministic(t *testing.T) {
	res := genGraph(300)
	a, err := explorePlan(res, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := explorePlan(res, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(planKey(a), planKey(b)) {
		t.Fatal("same seed gave different explore plans")
	}
	c, err := explorePlan(res, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(planKey(a), planKey(c)) {
		t.Fatal("different seeds gave the same explore plan")
	}
	for _, s := range a.sessions {
		if len(s) != 7*exploreCycles {
			t.Fatalf("session of %d requests, want %d", len(s), 7*exploreCycles)
		}
		for _, r := range s {
			if r.want == nil {
				t.Fatal("explore request without a reference answer")
			}
		}
	}
}

func TestLivePlanDeterministic(t *testing.T) {
	res := genGraph(300)
	a, err := livePlan(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := livePlan(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planKey(a), planKey(b)) {
		t.Fatal("same seed gave different live plans")
	}
	c, err := livePlan(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(planKey(a), planKey(c)) {
		t.Fatal("different seeds gave the same live plan")
	}
	s := a.sessions[0]
	if s[0].kind != kindLoad || s[0].tlLen != 7*liveAgeCycles {
		t.Fatalf("first request %v ages to %d, want a load to %d", s[0].kind, s[0].tlLen, 7*liveAgeCycles)
	}
	if last := s[len(s)-1]; last.tlLen != 7*(liveAgeCycles+liveCycles) {
		t.Fatalf("last request at age %d, want %d", last.tlLen, 7*(liveAgeCycles+liveCycles))
	}
}
