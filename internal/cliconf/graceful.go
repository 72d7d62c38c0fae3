package cliconf

import (
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Graceful runs registered closers exactly once — on SIGINT/SIGTERM or on
// the normal exit path, whichever comes first — so a long-running CLI
// (ecgraph-serve, ecgraph-train -metrics-addr or -net tcp) drains its
// queues, flushes its event log and closes its listeners instead of
// dying mid-write. A second signal skips the drain and exits immediately.
type Graceful struct {
	name string

	mu      sync.Mutex
	closers []func()
	once    sync.Once
}

// NewGraceful returns a helper that prefixes its log lines with name.
func NewGraceful(name string) *Graceful {
	return &Graceful{name: name}
}

// Defer registers fn to run at shutdown. Closers run in reverse
// registration order, like defers.
func (g *Graceful) Defer(fn func()) {
	g.mu.Lock()
	g.closers = append(g.closers, fn)
	g.mu.Unlock()
}

// run executes the closers once, LIFO.
func (g *Graceful) run() {
	g.once.Do(func() {
		g.mu.Lock()
		closers := g.closers
		g.closers = nil
		g.mu.Unlock()
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	})
}

// Arm starts watching SIGINT and SIGTERM. The first signal announces
// itself, runs the closers and exits with exitCode; a second signal while
// the drain is still running force-exits with code 1.
func (g *Graceful) Arm(exitCode int) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Printf("%s: received %s, draining\n", g.name, sig)
		go func() {
			<-ch
			fmt.Fprintf(os.Stderr, "%s: second signal, exiting now\n", g.name)
			os.Exit(1)
		}()
		g.run()
		fmt.Printf("%s: drained, exiting\n", g.name)
		os.Exit(exitCode)
	}()
}

// Shutdown runs the closers on the normal (signal-free) exit path. Safe to
// call from a defer alongside an armed signal handler: whoever gets there
// first wins.
func (g *Graceful) Shutdown() {
	g.run()
}
