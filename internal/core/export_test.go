package core

import (
	"io"
	"log/slog"

	"sdwp/internal/qsched"
)

// WrapExecutor restarts e's query scheduler over wrap(e's executor): the
// seam through which tests inject scan faults end to end. Call it before
// any query runs.
func WrapExecutor(e *Engine, wrap func(qsched.Executor) qsched.Executor) {
	e.sched.Close()
	e.exec = wrap(e.exec)
	e.sched = qsched.New(e.exec, qsched.Options{Metrics: e.metrics, Costs: e.costs,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}
