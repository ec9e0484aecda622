package main

import (
	"fmt"

	"distcount/internal/countersvc"
	"distcount/internal/engine"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// keyedRun is the keyed-skew cell: one countersvc service driven by the
// keyed closed-loop engine.
type keyedRun struct {
	svc      countersvc.Config
	scenario string
	wcfg     workload.Config
	ecfg     engine.Config
}

func (k keyedRun) build() (*countersvc.Service, workload.Generator, error) {
	svc, err := countersvc.New(k.svc)
	if err != nil {
		return nil, nil, err
	}
	gen, err := workload.New(k.scenario, k.wcfg)
	if err != nil {
		return nil, nil, err
	}
	return svc, gen, nil
}

func keyedFingerprint(res *engine.Result) string {
	s := fingerprint(res, nil)
	if kv := res.KeyedVerification; kv != nil {
		s += fmt.Sprintf("keyed=%d/%d/%d/%d summary=%+v\n", kv.Segments, kv.KeyDuplicates,
			kv.KeyOrderViolations, kv.MigratedKeys, kv.Summary)
	}
	return s + fmt.Sprintf("migrations=%+v\n", res.Migrations)
}

// runKeyedCell runs the keyed cell; traced, it adds the workload and
// engine-call spans and a sequential replay of the same keyed stream
// through Service.Start/Step. countersvc builds its shards internally, so
// the protocol and sim layers stay inside the engine's self time here.
func runKeyedCell(k keyedRun, traced bool) (*cellOut, error) {
	c := &cellOut{}
	c0 := threadCPU()
	svc, inner, err := k.build()
	if err != nil {
		return nil, err
	}
	gen := &tracedGen{inner: inner}
	var g workload.Generator = inner
	if traced {
		g = gen
	}
	ecfg := k.ecfg
	ecfg.Verify = true
	mem := startMem()
	c1 := threadCPU()
	t1 := now()
	res, err := engine.RunKeyed(svc, g, ecfg)
	t2 := now()
	c2 := threadCPU()
	mem.into(c)
	if err != nil {
		return nil, err
	}
	c.setupNs = c1 - c0
	c.runNs = c2 - c1
	kv := res.KeyedVerification
	if kv == nil {
		return nil, fmt.Errorf("keyed run returned no verification report")
	}
	c.noteResult(res, &kv.Summary)
	c.fp = keyedFingerprint(res)
	if !traced {
		return c, nil
	}
	tr := &traceTotals{
		ops:           res.Ops,
		engineNs:      t2 - t1,
		engineSelfNs:  t2 - t1 - gen.acc.ns,
		genNs:         gen.acc.ns,
		genCalls:      gen.acc.calls,
		svcMigrations: len(res.Migrations),
	}
	if err := replayKeyed(k, tr); err != nil {
		return nil, err
	}
	c.tr = tr
	return c, nil
}

// replayKeyed pushes the workload's keyed stream through a fresh service
// one operation at a time, timing each Service.Start and Service.Step call.
func replayKeyed(k keyedRun, tr *traceTotals) error {
	svc, gen, err := k.build()
	if err != nil {
		return err
	}
	perShard := make([]int, svc.Shards())
	svc.OnOpDone(func(shard, key, epoch int, st *sim.OpStats) {
		perShard[shard]++
		svc.Net(shard).ForgetOp(st.ID)
	})
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if _, open := svc.RouteFor(req.Key); !open {
			return fmt.Errorf("replay: key %d frozen at a quiescent point", req.Key)
		}
		t0 := now()
		svc.Start(svc.Now(), req.Key, req.Proc)
		tr.svcStartNs += now() - t0
		tr.svcOps++
		for {
			t0 := now()
			stepped, err := svc.Step()
			d := now() - t0
			if err != nil {
				return err
			}
			if !stepped {
				break
			}
			tr.svcStepNs += d
			tr.svcSteps++
		}
	}
	total := 0
	for _, n := range perShard {
		total += n
	}
	if total != int(tr.svcOps) {
		return fmt.Errorf("replay: %d of %d ops completed", total, tr.svcOps)
	}
	for _, n := range perShard {
		tr.svcMaxShare = max(tr.svcMaxShare, float64(n)/float64(total))
	}
	return nil
}
