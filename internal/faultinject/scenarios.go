package faultinject

import (
	"context"
	"errors"
	"fmt"
	"time"

	"orderopt/internal/exec"
)

// Outcome is what a pipeline must do under an injected fault.
type Outcome uint8

const (
	// WantError: the injected error propagates out of ExecuteContext
	// (errors.Is ErrInjected) — mid-stream operator faults are not
	// swallowed, retried or misclassified.
	WantError Outcome = iota
	// WantTimeout: under the scenario's Timeout deadline the pipeline
	// returns a context.DeadlineExceeded-wrapping error within the
	// deadline plus scheduling slack.
	WantTimeout
	// WantCancel: with the context cancelled CancelAfter into the run,
	// the pipeline returns a context.Canceled-wrapping error.
	WantCancel
)

func (o Outcome) String() string {
	switch o {
	case WantError:
		return "error"
	case WantTimeout:
		return "timeout"
	case WantCancel:
		return "cancel"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Scenario is one declarative fault-harness case: a fault spliced into
// the operators matching Target, an execution context shaped by
// Timeout/CancelAfter, and the Outcome the pipeline must produce.
// Every scenario additionally requires a leak-free abort: each
// operator opened must be closed (checked via Tracker by Run).
type Scenario struct {
	Name   string
	Target string
	Fault  Fault

	Outcome Outcome
	// Timeout is the context deadline of a WantTimeout scenario.
	Timeout time.Duration
	// CancelAfter is when a WantCancel scenario cancels its context.
	CancelAfter time.Duration
}

// Scenarios returns the standard fault menu for one operator target:
// a mid-stream error, a hung operator under a deadline, a hung
// operator under explicit cancellation, and a slow operator under a
// deadline. Together they exercise every exit path of the query
// lifecycle except budgets (which are data- not fault-driven and have
// their own tests in internal/exec).
func Scenarios(target string) []Scenario {
	const (
		timeout = 25 * time.Millisecond
		cancel  = 10 * time.Millisecond
	)
	return []Scenario{
		{
			Name:    "error-mid-stream",
			Target:  target,
			Fault:   Fault{Kind: ErrorAt, AtRow: 2},
			Outcome: WantError,
		},
		{
			Name:    "hang-deadline",
			Target:  target,
			Fault:   Fault{Kind: HangAt, AtRow: 1},
			Outcome: WantTimeout,
			Timeout: timeout,
		},
		{
			Name:        "hang-cancel",
			Target:      target,
			Fault:       Fault{Kind: HangAt, AtRow: 1},
			Outcome:     WantCancel,
			CancelAfter: cancel,
		},
		{
			Name:    "slow-deadline",
			Target:  target,
			Fault:   Fault{Kind: Delay, AtRow: 1, Sleep: 2 * time.Millisecond},
			Outcome: WantTimeout,
			Timeout: timeout,
		},
	}
}

// Run executes one scenario against a freshly compiled pipeline:
// it splices the scenario's fault (and a leak Tracker) into the
// runner, compiles the plan, executes under the scenario's context
// shape and checks the outcome. compile is called with the hooked
// runner and returns the pipeline to execute. The returned error
// describes the first violated expectation, nil when the pipeline
// reacted correctly.
func (sc Scenario) Run(r *exec.Runner, compile func() (*exec.Pipeline, error)) error {
	tracker := &Tracker{}
	r.Hook = Compose(tracker.Hook(), Hook(sc.Target, sc.Fault))
	p, err := compile()
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	switch sc.Outcome {
	case WantTimeout:
		ctx, cancel = context.WithTimeout(ctx, sc.Timeout)
	case WantCancel:
		ctx, cancel = context.WithCancel(ctx)
		time.AfterFunc(sc.CancelAfter, cancel)
	default:
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	begin := time.Now()
	_, err = p.ExecuteContext(ctx)
	elapsed := time.Since(begin)

	if err == nil {
		return fmt.Errorf("pipeline succeeded; want %v", sc.Outcome)
	}
	switch sc.Outcome {
	case WantError:
		if !errors.Is(err, ErrInjected) {
			return fmt.Errorf("got %v; want injected error", err)
		}
	case WantTimeout:
		if !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("got %v; want deadline exceeded", err)
		}
		// The acceptance bar: aborts land promptly after the deadline,
		// not after the pipeline would have finished anyway (delayed
		// pipelines run for seconds when not cut). The slack absorbs
		// ordinary scheduler latency only: callers sweeping many
		// scenarios run the WantTimeout ones serially.
		if slack := 300 * time.Millisecond; elapsed > sc.Timeout+slack {
			return fmt.Errorf("deadline %v honored only after %v (slack %v)", sc.Timeout, elapsed, slack)
		}
	case WantCancel:
		if !errors.Is(err, context.Canceled) {
			return fmt.Errorf("got %v; want canceled", err)
		}
	}
	if n := tracker.Leaked(); n != 0 {
		return fmt.Errorf("%d operators leaked open after abort (%d opened)", n, tracker.Opened())
	}
	if tracker.Opened() == 0 {
		return fmt.Errorf("tracker saw no operator opens; hook not spliced")
	}
	return nil
}
