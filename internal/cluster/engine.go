package cluster

import (
	"fmt"
	"sync"
)

// Config configures an Engine.
type Config struct {
	// Workers is the number of partitions P (the paper uses a 7-node
	// cluster; any P >= 1 works here).
	Workers int
	// Transport selects Local (default) or TCP.
	Transport TransportKind
	// Sequential forces single-goroutine execution of the compute phase,
	// useful to make data races impossible in debugging; by default all
	// workers compute concurrently.
	Sequential bool
}

// Stats accumulates the communication costs the paper reasons about.
type Stats struct {
	Rounds   int64 // barrier-separated supersteps executed
	Messages int64 // messages exchanged (including worker-local delivery)
	Bytes    int64 // wire bytes: the sum of Message.WireSize over exchanged messages
}

// Sub returns s - o, for measuring a phase delta.
func (s Stats) Sub(o Stats) Stats {
	return Stats{Rounds: s.Rounds - o.Rounds, Messages: s.Messages - o.Messages, Bytes: s.Bytes - o.Bytes}
}

// Emitter queues a message for delivery to worker `to` at the next round.
type Emitter func(to int, m Message)

// StepFunc is one worker's compute for one superstep. inbox holds the
// messages addressed to this worker in the previous round (order
// unspecified). The worker emits next-round messages via emit and returns
// whether it wants another round even without incoming messages.
type StepFunc func(worker, round int, inbox []Message, emit Emitter) (active bool, err error)

// RoundStat is the wire traffic one superstep of the most recent
// Run/RunRounds call moved into its successor round.
type RoundStat struct {
	Messages int64
	Bytes    int64
}

// Engine executes BSP supersteps over P workers. Create with New, run any
// number of phases with Run or RunRounds, inspect Stats, then Close.
type Engine struct {
	cfg       Config
	part      Partitioner
	transport Transport
	stats     Stats
	trace     []RoundStat
}

// New creates an engine with cfg.Workers partitions and the selected
// transport.
func New(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("cluster: workers=%d must be positive", cfg.Workers)
	}
	e := &Engine{cfg: cfg, part: Partitioner{P: cfg.Workers}}
	switch cfg.Transport {
	case Local:
		e.transport = newLocalTransport(cfg.Workers)
	case TCP:
		t, err := newTCPTransport(cfg.Workers)
		if err != nil {
			return nil, err
		}
		e.transport = t
	default:
		return nil, fmt.Errorf("cluster: unknown transport %v", cfg.Transport)
	}
	return e, nil
}

// Workers returns the partition count P.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Owner returns the worker owning vertex v.
func (e *Engine) Owner(v uint32) int { return e.part.Owner(v) }

// Stats returns the accumulated communication statistics.
func (e *Engine) Stats() Stats { return e.stats }

// LastTrace returns the per-round wire stats of the most recent Run or
// RunRounds call (index = round number). A run's final round always shows
// zero traffic: its emissions were discarded (fixed-length RunRounds) or
// absent (quiescent termination). The slice is reused by the next run; copy
// it to keep it.
func (e *Engine) LastTrace() []RoundStat { return e.trace }

// Close releases the transport.
func (e *Engine) Close() error { return e.transport.Close() }

// Run executes supersteps until no worker is active and no messages are in
// flight. It returns the number of rounds executed.
func (e *Engine) Run(step StepFunc) (int, error) {
	return e.run(step, -1)
}

// RunRounds executes exactly n supersteps. Messages emitted in the final
// round are DISCARDED: there is no round n+1 to deliver them into, so they
// never cross the transport and are not charged to Stats.Messages or
// Stats.Bytes (Stats meters wire traffic, and a discarded message moves no
// bytes). Phases whose last round must still be heard should run one round
// more and leave that extra round's emit unused.
func (e *Engine) RunRounds(step StepFunc, n int) (int, error) {
	return e.run(step, n)
}

func (e *Engine) run(step StepFunc, maxRounds int) (int, error) {
	p := e.cfg.Workers
	inboxes := make([][]Message, p)
	round := 0
	e.trace = e.trace[:0]
	for {
		if maxRounds >= 0 && round >= maxRounds {
			return round, nil
		}
		out := make([][][]Message, p)
		active := make([]bool, p)
		errs := make([]error, p)
		compute := func(w int) {
			boxes := make([][]Message, p)
			out[w] = boxes
			emit := func(to int, m Message) {
				if to < 0 || to >= p {
					panic(fmt.Sprintf("cluster: emit to worker %d of %d", to, p))
				}
				boxes[to] = append(boxes[to], m)
			}
			active[w], errs[w] = step(w, round, inboxes[w], emit)
		}
		if e.cfg.Sequential || p == 1 {
			for w := 0; w < p; w++ {
				compute(w)
			}
		} else {
			var wg sync.WaitGroup
			for w := 0; w < p; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					compute(w)
				}()
			}
			wg.Wait()
		}
		for w := 0; w < p; w++ {
			if errs[w] != nil {
				return round, fmt.Errorf("cluster: worker %d round %d: %w", w, round, errs[w])
			}
		}

		e.stats.Rounds++
		round++

		// A final RunRounds round has no successor to deliver into: its
		// emissions are discarded before the transport and charged nothing.
		if maxRounds >= 0 && round >= maxRounds {
			e.trace = append(e.trace, RoundStat{})
			return round, nil
		}

		sent, bytes := int64(0), int64(0)
		for w := 0; w < p; w++ {
			for to := 0; to < p; to++ {
				sent += int64(len(out[w][to]))
				for _, m := range out[w][to] {
					bytes += int64(m.WireSize())
				}
			}
		}
		e.stats.Messages += sent
		e.stats.Bytes += bytes
		e.trace = append(e.trace, RoundStat{Messages: sent, Bytes: bytes})

		anyActive := false
		for _, a := range active {
			anyActive = anyActive || a
		}
		if sent == 0 && !anyActive {
			return round, nil
		}

		in, err := e.transport.Exchange(out)
		if err != nil {
			return round, err
		}
		inboxes = in
	}
}
