package fault

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// Sites used across the tests; package-level like production sites.
var (
	tpError = New("fault-test/error")
	tpPanic = New("fault-test/panic")
	tpDelay = New("fault-test/delay")
	tpRatio = New("fault-test/ratio")
	tpRace  = New("fault-test/race")
	tpEnvA  = New("fault-test/env-a")
	tpEnvB  = New("fault-test/env-b")
)

func TestDisarmedPasses(t *testing.T) {
	defer DisarmAll()
	if err := tpError.Hit(); err != nil {
		t.Fatalf("disarmed Hit: %v", err)
	}
	if tpError.Armed() {
		t.Error("fresh site reports armed")
	}
	if hits, trips := tpError.Counters(); hits != 0 || trips != 0 {
		t.Errorf("disarmed counters %d/%d, want 0/0", hits, trips)
	}
}

func TestErrorInjection(t *testing.T) {
	defer DisarmAll()
	organic := errors.New("disk on fire")
	tpError.Arm(Spec{Kind: KindError, Err: organic})
	err := tpError.Hit()
	if err == nil {
		t.Fatal("armed error site passed")
	}
	if !errors.Is(err, organic) {
		t.Errorf("injected error %v does not unwrap to the spec error", err)
	}
	if !IsInjected(err) {
		t.Error("IsInjected false on an injected error")
	}
	if !strings.Contains(err.Error(), tpError.Name()) {
		t.Errorf("injected error %q does not name its site", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Transient() {
		t.Errorf("non-transient arming produced Transient()=true (%v)", err)
	}
	if IsInjected(organic) {
		t.Error("IsInjected true on an organic error")
	}

	tpError.Arm(Spec{Kind: KindError, Err: organic, Transient: true})
	if err := tpError.Hit(); !errors.As(err, &fe) || !fe.Transient() {
		t.Errorf("transient arming lost the marker: %v", err)
	}

	tpError.Disarm()
	if err := tpError.Hit(); err != nil {
		t.Fatalf("disarmed site still injects: %v", err)
	}
}

func TestPanicInjection(t *testing.T) {
	defer DisarmAll()
	tpPanic.Arm(Spec{Kind: KindPanic, Msg: "boom"})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("armed panic site did not panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "boom") || !strings.Contains(msg, tpPanic.Name()) {
			t.Errorf("panic value %v, want message and site name", r)
		}
	}()
	tpPanic.Hit()
}

func TestDelayInjection(t *testing.T) {
	defer DisarmAll()
	tpDelay.Arm(Spec{Kind: KindDelay, Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := tpDelay.Hit(); err != nil {
		t.Fatalf("delay Hit returned error: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("delay Hit returned after %v, want >= 30ms", d)
	}

	// A cancelled context cuts the delay short.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tpDelay.Arm(Spec{Kind: KindDelay, Delay: 10 * time.Second})
	start = time.Now()
	if err := tpDelay.HitCtx(ctx); err != nil {
		t.Fatalf("delay HitCtx returned error: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled delay took %v", d)
	}
}

func TestOneInAndLimit(t *testing.T) {
	defer DisarmAll()
	tpRatio.Arm(Spec{Kind: KindError, OneIn: 3, Limit: 2})
	var injected int
	for i := 0; i < 12; i++ {
		if tpRatio.Hit() != nil {
			injected++
			// One-in-3: only every third evaluation trips.
			if (i+1)%3 != 0 {
				t.Errorf("evaluation %d tripped outside the one-in-3 cadence", i+1)
			}
		}
	}
	if injected != 2 {
		t.Errorf("injected %d errors, want 2 (limit)", injected)
	}
	hits, trips := tpRatio.Counters()
	if hits != 12 || trips != 2 {
		t.Errorf("counters %d/%d, want 12/2", hits, trips)
	}
	// Re-arming resets counters.
	tpRatio.Arm(Spec{Kind: KindError})
	if hits, trips := tpRatio.Counters(); hits != 0 || trips != 0 {
		t.Errorf("counters after re-arm %d/%d, want 0/0", hits, trips)
	}
}

func TestRegistry(t *testing.T) {
	defer DisarmAll()
	if _, ok := Lookup("fault-test/error"); !ok {
		t.Error("registered site not found")
	}
	if _, ok := Lookup("no/such/site"); ok {
		t.Error("unknown site found")
	}
	if err := Arm("no/such/site", Spec{}); err == nil {
		t.Error("Arm on unknown site succeeded")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted/unique: %v", names)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate New did not panic")
			}
		}()
		New("fault-test/error")
	}()
}

func TestArmAllDSL(t *testing.T) {
	defer DisarmAll()
	dsl := "fault-test/env-a=flake(io timeout),2,1; fault-test/env-b=delay(5ms)"
	if err := ArmAll(dsl); err != nil {
		t.Fatal(err)
	}
	if err := tpEnvA.Hit(); err != nil {
		t.Errorf("one-in-2 site tripped on first evaluation: %v", err)
	}
	err := tpEnvA.Hit()
	if err == nil {
		t.Fatal("one-in-2 site did not trip on second evaluation")
	}
	var fe *Error
	if !errors.As(err, &fe) || !fe.Transient() || !strings.Contains(err.Error(), "io timeout") {
		t.Errorf("flake arming produced %v, want transient io timeout", err)
	}
	for i := 0; i < 4; i++ {
		if err := tpEnvA.Hit(); err != nil {
			t.Errorf("limit-1 site tripped again: %v", err)
		}
	}
	if !tpEnvB.Armed() {
		t.Error("second DSL entry not armed")
	}

	for _, bad := range malformedDSL {
		if err := ArmAll(bad); err == nil {
			t.Errorf("ArmAll(%q) succeeded, want parse error", bad)
		}
	}
}

// malformedDSL are arming strings ArmAll must refuse whole.
var malformedDSL = []string{
	"fault-test/env-a",                   // no trigger
	"fault-test/env-a=explode(x)",        // unknown kind
	"fault-test/env-a=delay(notadur)",    // bad duration
	"fault-test/env-a=error(x),0",        // non-positive modifier
	"fault-test/env-a=error(x),1,2,3",    // too many modifiers
	"fault-test/env-a=error(x)garbage",   // trailer without comma
	"no/such/site=error(x)",              // unknown site
	"fault-test/env-a=error(x);bogus=no", // second entry bad
}

// FuzzArmAll drives ArmAll, the decoder of the SPIDERSERVED_FAULTS
// environment variable, with arbitrary strings: it never panics, a call
// that returns an error arms no site, and a call that succeeds arms
// exactly the sites its entries name. It only arms sites, never hits
// them, so no armed panic or delay fires.
func FuzzArmAll(f *testing.F) {
	f.Add("serve/cache/put=error(disk full),3;serve/miner/invoke=flake(io timeout),1,2") // the package doc's example
	f.Add("fault-test/env-a=flake(io timeout),2,1; fault-test/env-b=delay(5ms)")
	f.Add(" ; fault-test/error = panic(boom) ;;fault-test/env-a=error(x),1,1")
	for _, bad := range malformedDSL {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, dsl string) {
		DisarmAll()
		defer DisarmAll()
		err := ArmAll(dsl)
		named := map[string]bool{}
		if err == nil {
			for _, entry := range strings.Split(dsl, ";") {
				if name, _, ok := strings.Cut(strings.TrimSpace(entry), "="); ok {
					named[strings.TrimSpace(name)] = true
				}
			}
		}
		for _, name := range Names() {
			p, _ := Lookup(name)
			if p.Armed() != named[name] {
				t.Fatalf("ArmAll(%q) = %v: site %s armed %v, want %v", dsl, err, name, p.Armed(), named[name])
			}
		}
	})
}

// TestConcurrentHit races arming, disarming, and evaluation; run under
// -race in CI.
func TestConcurrentHit(t *testing.T) {
	defer DisarmAll()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tpRace.Hit()
					tpRace.Counters()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		tpRace.Arm(Spec{Kind: KindError, OneIn: 2})
		tpRace.Disarm()
	}
	close(stop)
	wg.Wait()
}

// TestPointDisarmedNoAlloc pins the disarmed fast path at zero
// allocations — failpoints sit on serving paths and must be free when
// idle.
func TestPointDisarmedNoAlloc(t *testing.T) {
	defer DisarmAll()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := tpError.Hit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disarmed Hit allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkPointDisarmed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tpError.Hit(); err != nil {
			b.Fatal(err)
		}
	}
}
