// Package faults is the search stack's deterministic fault-injection
// registry. Chaos tests (and the -fault-spec CLI flag) activate an Injector
// that fires errors, panics, latency, or data corruption at named sites
// threaded through the optimizer — problem compilation, level expansion,
// cost evaluation, the evaluation memo cache, and the progress callback —
// so the graceful-degradation machinery (retries, fallback mappers, the
// final mapping audit) can be proven against every failure mode it claims
// to survive.
//
// The hooks are zero-cost when disabled: every site check is one atomic
// pointer load against nil, which disappears into the noise floor of even
// the cheapest cost-model evaluation. With an Injector active, decisions
// are seeded and reproducible — the n-th consultation of a given site
// always reaches the same verdict for the same seed, independent of wall
// clock or scheduling (which goroutine *observes* the n-th verdict still
// depends on interleaving; the verdict sequence itself does not).
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names one injection point in the search stack.
type Site string

// The injection sites the optimizer threads hooks through.
const (
	// SiteCompile fires in problem compilation (core.Compile): error-kind
	// faults fail the compile, panic-kind faults poison it mid-build.
	SiteCompile Site = "compile"
	// SiteExpand fires in the level sequencer's candidate expansion; both
	// error and panic kinds surface as a panicking expansion (expansion has
	// no error channel).
	SiteExpand Site = "expand"
	// SiteEvaluate fires at the start of every cost evaluation
	// (cost.Evaluator's Report and EvaluateEDP); error and panic kinds
	// panic (contained by the search's per-candidate isolation).
	SiteEvaluate Site = "evaluate"
	// SiteProgress fires before each Options.Progress callback delivery;
	// all kinds panic (contained by the progress emitter).
	SiteProgress Site = "progress-callback"
	// SiteJournal fires on every write-ahead-journal append and on every
	// record read during crash recovery (internal/journal). Error-kind
	// faults fail the write (durable appends retry, then surface as a 503
	// before any job is acknowledged) or force a re-read on the recovery
	// path; corrupt-kind faults flip a payload byte — after the CRC is
	// computed on writes, in the read buffer on replays — so the
	// checksum machinery must detect them; latency sleeps.
	SiteJournal Site = "journal"
)

// Sites lists every injection site, in stack order.
func Sites() []Site {
	return []Site{SiteCompile, SiteExpand, SiteEvaluate, SiteProgress, SiteJournal}
}

// Kind classifies what a fired fault does.
type Kind uint8

const (
	// Error returns an *InjectedError from the hook; sites without an
	// error channel panic with it instead.
	Error Kind = iota
	// Panic panics with an *InjectedError.
	Panic
	// Latency sleeps for the rule's Delay, then proceeds normally.
	Latency
	// Corrupt asks the site to corrupt its own data (only the journal
	// site implements corruption; elsewhere it is a no-op).
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Latency:
		return "latency"
	case Corrupt:
		return "corrupt"
	default:
		return "error"
	}
}

// parseKind inverts String.
func parseKind(s string) (Kind, error) {
	switch s {
	case "error":
		return Error, nil
	case "panic":
		return Panic, nil
	case "latency":
		return Latency, nil
	case "corrupt":
		return Corrupt, nil
	}
	return 0, fmt.Errorf("unknown fault kind %q (error|panic|latency|corrupt)", s)
}

// InjectedError marks a deliberately injected failure. Error-kind faults
// return one; panic-kind faults panic with one, so a recovered
// *anytime.PanicError carries it as the panic value. The network
// scheduler's failure classifier keys on this type.
type InjectedError struct {
	Site Site
	Kind Kind
	// Seq is the site consultation ordinal that fired the fault (1-based),
	// for reproducing a specific firing.
	Seq uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected %s fault at site %q (firing #%d)", e.Kind, e.Site, e.Seq)
}

// Rule arms one site with one fault kind at a firing rate.
type Rule struct {
	Site Site
	Kind Kind
	// Rate is the per-consultation firing probability in [0, 1].
	Rate float64
	// Delay is the sleep applied by Latency-kind rules (default 100µs).
	Delay time.Duration
}

// Injector decides, deterministically under its seed, whether each site
// consultation fires a fault. Safe for concurrent use.
type Injector struct {
	seed  uint64
	rules map[Site][]Rule
	seq   map[Site]*atomic.Uint64
	fired map[Site]*atomic.Uint64
}

// NewInjector builds an injector from rules; rules outside [0,1] rates or
// naming unknown sites are rejected.
func NewInjector(seed int64, rules ...Rule) (*Injector, error) {
	inj := &Injector{
		seed:  uint64(seed),
		rules: map[Site][]Rule{},
		seq:   map[Site]*atomic.Uint64{},
		fired: map[Site]*atomic.Uint64{},
	}
	known := map[Site]bool{}
	for _, s := range Sites() {
		known[s] = true
		inj.seq[s] = &atomic.Uint64{}
		inj.fired[s] = &atomic.Uint64{}
	}
	for _, r := range rules {
		if !known[r.Site] {
			return nil, fmt.Errorf("unknown fault site %q", r.Site)
		}
		if math.IsNaN(r.Rate) || r.Rate < 0 || r.Rate > 1 {
			return nil, fmt.Errorf("site %s: rate %v outside [0, 1]", r.Site, r.Rate)
		}
		if r.Delay <= 0 {
			r.Delay = 100 * time.Microsecond
		}
		inj.rules[r.Site] = append(inj.rules[r.Site], r)
	}
	return inj, nil
}

// NewUniform arms every site with every applicable destructive kind at the
// given rate — the chaos-test workhorse. Each site gets an error/panic mix
// (split evenly so the combined firing rate stays near rate), the journal
// site additionally gets corruption, and the evaluate and journal sites get
// a thin slice of latency with a tiny delay.
func NewUniform(seed int64, rate float64) *Injector {
	half := rate / 2
	tiny := 50 * time.Microsecond
	inj, err := NewInjector(seed,
		Rule{Site: SiteCompile, Kind: Error, Rate: half},
		Rule{Site: SiteCompile, Kind: Panic, Rate: half},
		Rule{Site: SiteExpand, Kind: Error, Rate: half},
		Rule{Site: SiteExpand, Kind: Panic, Rate: half},
		Rule{Site: SiteEvaluate, Kind: Panic, Rate: rate},
		Rule{Site: SiteEvaluate, Kind: Latency, Rate: rate / 8, Delay: tiny},
		Rule{Site: SiteProgress, Kind: Panic, Rate: rate},
		Rule{Site: SiteJournal, Kind: Error, Rate: half},
		Rule{Site: SiteJournal, Kind: Corrupt, Rate: half},
		Rule{Site: SiteJournal, Kind: Latency, Rate: rate / 8, Delay: tiny},
	)
	if err != nil {
		panic(err) // static rule set; unreachable
	}
	return inj
}

// splitmix64 is the SplitMix64 finalizer — a high-quality 64-bit mix used
// to turn (seed, site, ordinal, rule) into an i.i.d.-looking uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func siteHash(s Site) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// decide consults the site's rules for consultation ordinal n; the first
// rule whose draw fires wins.
func (inj *Injector) decide(site Site, n uint64) (Rule, bool) {
	for ri, r := range inj.rules[site] {
		draw := splitmix64(inj.seed ^ siteHash(site) ^ n*0x9e3779b97f4a7c15 ^ uint64(ri)<<56)
		// Map the top 53 bits to [0, 1).
		u := float64(draw>>11) / (1 << 53)
		if u < r.Rate {
			return r, true
		}
	}
	return Rule{}, false
}

// fire runs one consultation: error-kind faults return the error, panic
// kinds panic, latency sleeps, corrupt reports via the bool (only
// meaningful to sites that implement corruption).
func (inj *Injector) fire(site Site) (error, bool) {
	n := inj.seq[site].Add(1)
	r, hit := inj.decide(site, n)
	if !hit {
		return nil, false
	}
	inj.fired[site].Add(1)
	switch r.Kind {
	case Panic:
		panic(&InjectedError{Site: site, Kind: Panic, Seq: n})
	case Latency:
		time.Sleep(r.Delay)
		return nil, false
	case Corrupt:
		return nil, true
	default:
		return &InjectedError{Site: site, Kind: Error, Seq: n}, false
	}
}

// Fired returns how many faults the injector has fired at site so far.
func (inj *Injector) Fired(site Site) uint64 {
	if c := inj.fired[site]; c != nil {
		return c.Load()
	}
	return 0
}

// FiredTotal sums Fired over every site.
func (inj *Injector) FiredTotal() uint64 {
	var n uint64
	for _, s := range Sites() {
		n += inj.Fired(s)
	}
	return n
}

// active is the process-wide injector; nil (the steady state) makes every
// hook a single atomic load.
var active atomic.Pointer[Injector]

// Activate installs inj as the process-wide injector and returns a restore
// function that reinstates whatever was active before. Tests must call the
// restore function (and must not run in parallel with tests that assume a
// fault-free stack).
func Activate(inj *Injector) (restore func()) {
	prev := active.Swap(inj)
	return func() { active.Store(prev) }
}

// Enabled reports whether any injector is active.
func Enabled() bool { return active.Load() != nil }

// Fire consults the active injector at site. It returns a non-nil
// *InjectedError for error-kind faults, panics for panic-kind faults,
// sleeps through latency faults, and returns (nil, false) when no injector
// is active or nothing fired. The bool reports a corrupt-kind firing, which
// only corruption-capable sites act on.
func Fire(site Site) (error, bool) {
	inj := active.Load()
	if inj == nil {
		return nil, false
	}
	return inj.fire(site)
}

// MustFire is Fire for sites with no error channel: an error-kind fault
// panics with its *InjectedError instead of returning it.
func MustFire(site Site) {
	if err, _ := Fire(site); err != nil {
		panic(err)
	}
}

// ParseSpec builds an Injector from a CLI-friendly spec: comma-separated
// site:kind:rate rules, an optional :duration fourth field on latency
// rules, and an optional seed=N entry (default seed 1). The pseudo-site
// "all" arms the uniform chaos mix of NewUniform at the given rate.
//
//	evaluate:panic:0.3
//	compile:error:0.1,journal:corrupt:0.05,seed=42
//	evaluate:latency:0.2:1ms
//	all:mixed:0.3,seed=7
func ParseSpec(spec string) (*Injector, error) {
	var rules []Rule
	seed := int64(1)
	uniform := -1.0
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if v, ok := strings.CutPrefix(item, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, specError("token %q: seed %q is not an integer", item, v)
			}
			seed = n
			continue
		}
		parts := strings.Split(item, ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, specError("token %q has %d field(s), want site:kind:rate or site:kind:rate:delay", item, len(parts))
		}
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, specError("token %q: rate %q is not a number", item, parts[2])
		}
		if math.IsNaN(rate) || rate < 0 || rate > 1 {
			return nil, specError("token %q: rate %v outside [0, 1]", item, rate)
		}
		if parts[0] == "all" {
			uniform = rate
			continue
		}
		kind, err := parseKind(parts[1])
		if err != nil {
			return nil, specError("token %q: %v", item, err)
		}
		r := Rule{Site: Site(parts[0]), Kind: kind, Rate: rate}
		if len(parts) == 4 {
			d, err := time.ParseDuration(parts[3])
			if err != nil {
				return nil, specError("token %q: delay %q is not a duration (e.g. 1ms)", item, parts[3])
			}
			r.Delay = d
		}
		rules = append(rules, r)
	}
	if uniform >= 0 {
		if len(rules) > 0 {
			return nil, specError("the 'all' pseudo-site cannot be combined with per-site rules")
		}
		u := NewUniform(seed, uniform)
		return u, nil
	}
	if len(rules) == 0 {
		return nil, specError("%q names no rules", spec)
	}
	inj, err := NewInjector(seed, rules...)
	if err != nil {
		return nil, specError("%v", err)
	}
	return inj, nil
}

// specGrammar is the accepted ParseSpec grammar, appended to every parse
// error so a CLI typo is self-documenting.
const specGrammar = "spec = rule{,rule}[,seed=N] | all:mixed:rate[,seed=N]; " +
	"rule = site:kind:rate[:delay]; " +
	"site = compile | expand | evaluate | progress-callback | journal; " +
	"kind = error | panic | latency | corrupt; rate in [0, 1]; delay like 1ms"

// specError builds a ParseSpec error that names the offending token and
// restates the accepted grammar.
func specError(format string, args ...any) error {
	return fmt.Errorf("fault spec: "+format+"\naccepted grammar: "+specGrammar, args...)
}
