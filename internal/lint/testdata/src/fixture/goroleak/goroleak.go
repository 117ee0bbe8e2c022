// Package goroleak holds known-good and known-bad goroutine shapes for the
// goroleak analyzer: every spawned goroutine needs a termination path.
package goroleak

import (
	"context"
	"sync"
	"time"
)

func work() {}

func badSpinner() {
	go func() { // want:goroleak goroutine spawned here never terminates
		for {
			work()
			time.Sleep(time.Millisecond)
		}
	}()
}

// runForever is only a leak when spawned; the analyzer attributes it to the
// go statement, one call deep.
func runForever() {
	for {
		work()
	}
}

func badNamedSpawn() {
	go runForever() // want:goroleak goroutine spawned here never terminates
}

// pump holds its work loop in a func-typed field: only the dataflow layer's
// Flow edges connect a call through step to spin.
type pump struct {
	step func()
}

// spin has no exit: a leak wherever it is spawned.
func spin() {
	for {
		work()
	}
}

func badFlowSpawn() {
	p := pump{step: spin}
	go func() { // want:goroleak goroutine spawned here never terminates
		p.step()
	}()
}

func badDirectFlowSpawn(p pump) {
	go p.step() // want:goroleak goroutine spawned here never terminates
}

func badSelectBreak(tick chan int) {
	go func() { // want:goroleak goroutine spawned here never terminates
		for {
			select {
			case <-tick:
				break // breaks the select, not the loop
			}
		}
	}()
}

func goodCtxLoop(ctx context.Context) {
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				work()
			}
		}
	}()
}

func goodRangeClose(ch chan int) {
	go func() {
		for range ch { // terminates when ch is closed
			work()
		}
	}()
}

func goodBoundedWork(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			work()
		}
	}()
}

func goodLabeledBreak(jobs chan int) {
	go func() {
	drain:
		for {
			select {
			case j, ok := <-jobs:
				if !ok {
					break drain
				}
				_ = j
			}
		}
	}()
}
