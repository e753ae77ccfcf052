package faults

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// drain consults site n times, classifying each outcome.
func drain(inj *Injector, site Site, n int) (errs, panics, corrupts int) {
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if v := recover(); v != nil {
					if _, ok := v.(*InjectedError); !ok {
						panic(v)
					}
					panics++
				}
			}()
			err, corrupt := inj.fire(site)
			if err != nil {
				var ie *InjectedError
				if !errors.As(err, &ie) {
					panic("fired error is not *InjectedError")
				}
				errs++
			}
			if corrupt {
				corrupts++
			}
		}()
	}
	return errs, panics, corrupts
}

func TestDeterministicUnderSeed(t *testing.T) {
	runs := make([][3]int, 2)
	for i := range runs {
		inj := NewUniform(42, 0.3)
		e, p, c := drain(inj, SiteEvaluate, 1000)
		runs[i] = [3]int{e, p, c}
	}
	if runs[0] != runs[1] {
		t.Fatalf("same seed diverged: %v vs %v", runs[0], runs[1])
	}
	other := NewUniform(43, 0.3)
	e, p, c := drain(other, SiteEvaluate, 1000)
	if [3]int{e, p, c} == runs[0] {
		t.Errorf("different seeds produced an identical firing pattern (possible but wildly unlikely)")
	}
}

func TestRatesApproximatelyHonored(t *testing.T) {
	inj, err := NewInjector(7, Rule{Site: SiteEvaluate, Kind: Panic, Rate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	_, p, _ := drain(inj, SiteEvaluate, 10000)
	if p < 2600 || p > 3400 {
		t.Errorf("panic rate 0.3 fired %d/10000 times", p)
	}
	if got := inj.Fired(SiteEvaluate); got != uint64(p) {
		t.Errorf("Fired = %d, observed %d", got, p)
	}
	// Unarmed sites never fire.
	if e, p, c := drain(inj, SiteCompile, 1000); e+p+c != 0 {
		t.Errorf("unarmed site fired: %d/%d/%d", e, p, c)
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	inj, err := NewInjector(1, Rule{Site: SiteCompile, Kind: Error, Rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	if e, p, c := drain(inj, SiteCompile, 5000); e+p+c != 0 {
		t.Errorf("zero-rate rule fired: %d/%d/%d", e, p, c)
	}
}

func TestRuleValidation(t *testing.T) {
	if _, err := NewInjector(1, Rule{Site: "nope", Kind: Error, Rate: 0.1}); err == nil {
		t.Error("unknown site accepted")
	}
	if _, err := NewInjector(1, Rule{Site: SiteCompile, Kind: Error, Rate: 1.5}); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := NewInjector(1, Rule{Site: SiteCompile, Kind: Error, Rate: -0.1}); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestActivateRestore(t *testing.T) {
	if Enabled() {
		t.Fatal("injector active at test start")
	}
	inj, _ := NewInjector(1, Rule{Site: SiteCompile, Kind: Error, Rate: 1})
	restore := Activate(inj)
	if !Enabled() {
		t.Fatal("Activate did not enable")
	}
	if err, _ := Fire(SiteCompile); err == nil {
		t.Error("armed compile site did not fire at rate 1")
	}
	restore()
	if Enabled() {
		t.Fatal("restore did not disable")
	}
	if err, _ := Fire(SiteCompile); err != nil {
		t.Errorf("disabled hook fired: %v", err)
	}
}

func TestLatencyKindSleeps(t *testing.T) {
	inj, _ := NewInjector(1, Rule{Site: SiteEvaluate, Kind: Latency, Rate: 1, Delay: 5 * time.Millisecond})
	start := time.Now()
	if err, corrupt := inj.fire(SiteEvaluate); err != nil || corrupt {
		t.Fatalf("latency fault returned err=%v corrupt=%v", err, corrupt)
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Errorf("latency fault slept only %v", el)
	}
}

func TestConcurrentFiringIsRaceClean(t *testing.T) {
	inj := NewUniform(9, 0.5)
	restore := Activate(inj)
	defer restore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				func() {
					defer func() { recover() }()
					Fire(SiteEvaluate)
					Fire(SiteJournal)
					MustFire(SiteProgress)
				}()
			}
		}()
	}
	wg.Wait()
	if inj.FiredTotal() == 0 {
		t.Error("no faults fired under concurrency")
	}
}

func TestParseSpec(t *testing.T) {
	inj, err := ParseSpec("evaluate:panic:1,compile:error:0.5,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if _, p, _ := drain(inj, SiteEvaluate, 10); p != 10 {
		t.Errorf("rate-1 panic rule fired %d/10", p)
	}
	if _, err := ParseSpec("evaluate:latency:0.5:2ms"); err != nil {
		t.Errorf("latency with delay rejected: %v", err)
	}
	if inj, err = ParseSpec("all:mixed:0.3,seed=3"); err != nil || inj == nil {
		t.Errorf("'all' spec rejected: %v", err)
	}
}

// TestParseSpecErrors pins the parser's error contract: every rejection
// names the offending token (not just "bad spec") and restates the accepted
// grammar, so a CLI typo is self-diagnosing.
func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, spec string
		// wantToken must appear in the error — the piece of input that
		// caused the rejection.
		wantToken string
	}{
		{"empty", "", `""`},
		{"one field", "evaluate", `"evaluate"`},
		{"two fields", "evaluate:panic", `"evaluate:panic"`},
		{"five fields", "evaluate:panic:1:1ms:extra", `"evaluate:panic:1:1ms:extra"`},
		{"rate not a number", "evaluate:panic:x", `"x"`},
		{"rate above one", "evaluate:panic:1.5", `1.5`},
		{"rate negative", "evaluate:panic:-0.5", `-0.5`},
		{"uniform rate above one", "all:mixed:1.5", `1.5`},
		{"unknown kind", "evaluate:nosuchkind:0.5", `"nosuchkind"`},
		{"unknown site", "nosuchsite:panic:0.5", `"nosuchsite"`},
		{"removed cache-get site", "cache-get:corrupt:0.5", `"cache-get"`},
		{"bad delay", "evaluate:panic:0.5:notaduration", `"notaduration"`},
		{"all mixed with rules", "all:mixed:0.3,evaluate:panic:0.1", `'all'`},
		{"bad seed", "seed=abc,evaluate:panic:0.1", `"abc"`},
		// The offending token is named even when buried mid-spec among
		// valid rules.
		{"bad token mid-spec", "compile:error:0.1,evaluate:oops:0.2,seed=9", `"oops"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.spec)
			if err == nil {
				t.Fatalf("ParseSpec(%q) succeeded", tc.spec)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.wantToken) {
				t.Errorf("error does not name the offending token %s:\n%s", tc.wantToken, msg)
			}
			if !strings.Contains(msg, "accepted grammar:") ||
				!strings.Contains(msg, "site:kind:rate[:delay]") {
				t.Errorf("error does not restate the grammar:\n%s", msg)
			}
		})
	}
}

func TestInjectedErrorClassifiable(t *testing.T) {
	inj, _ := NewInjector(1, Rule{Site: SiteCompile, Kind: Error, Rate: 1})
	err, _ := inj.fire(SiteCompile)
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Site != SiteCompile || ie.Kind != Error || ie.Seq != 1 {
		t.Fatalf("injected error lost its identity: %#v", err)
	}
	if ie.Error() == "" {
		t.Error("empty rendering")
	}
}
