package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/workload"
)

// registryGolden pins the schedule of every registry policy on one small
// synthetic workload (seed 7, scale 0.05, 100 nodes; the deadline-aware
// entries under a two-tier SLO assignment): SHA-256 over every
// record's (id, start, complete) and the event count, for each kill mode
// and, for the max= entries, each split mode (see scheduleHash). A change
// to any scheduling engine that moves a single start time fails here,
// naming the policy. A deliberate schedule change re-records the constant
// from the failure message.
var registryGolden = map[string]string{
	"cplant24.nomax.all":     "0881f115b43f09d2fef956b5c9a77873dd0786cf132092da6090960f2f5c0a9f",
	"cplant24.nomax.fair":    "111dea1e3855932e68dc1951ad70f3375a142705c510f61452ec2294181736d7",
	"cplant72.nomax.all":     "70b506652b60fb0a87f486e54c119cb981d136e6ca706d08a87418f50c61306d",
	"cplant24.72max.all":     "e1f3a7f8df2f1ba6e8b99a57441e675c16358543ceb0376a0dd125da2b9df1e3",
	"cplant72.72max.fair":    "26b19a84b6dae719536597a5a56722ccb4bb142ac09ddb03bcc930cb4542b82f",
	"cons.nomax":             "b6659407fd19d1124848176975ba693a54ce4cc0f7ec33eb322f2f38a78061eb",
	"consdyn.nomax":          "ad216308dbb0bd9d5674c7b9bc10293ea04f5fc096d1ea720d37f99d02abbe60",
	"cons.72max":             "42fa0eb79b5dffd71a7177dba032b7424e995d36565879332db2fb2f5716c432",
	"consdyn.72max":          "d3b860d69ba01e0cc7024d318ae7b58392ffeb3f83528b8ce5506ad4851df560",
	"fcfs":                   "fe38c4830d50b1c2658bcccf9c55bc35d1c12a81083ce32639430e718e7d5280",
	"easy":                   "558989bbff6263419655bbe285f6f67e6516842794367b584c292111f144c2ff",
	"easy.fairshare":         "10d2c2139d85c736aefda072d33a4ca24229593d9a9379b6c419ef00f573428b",
	"list.fairshare":         "6511ef5abd43a3929da3d03a29789753ab44fc7bd305e77315f7c63752bed51f",
	"noguarantee":            "d119d76257a75e569b031626d548a9f057680e653365bb2b9bd69245d4f9989a",
	"list.sjf":               "0d8fa03a60bb372c62759214468a5d52d527d6aeb4796eb21d8d286546dfc6c3",
	"list.lxf":               "0f822be24f19f84cbbda5191a11a8b60714af4c76484db65edcf68ae64170c5e",
	"easy.sjf":               "775686ab80e4e2e8f0d43400a0f944408d19a9f10dd4e6ffb2fffc9bdbfd9e01",
	"easy.lxf":               "efac533bfd209ef270cc2a05e690dfd4637e0c60cfbf13794be1d8ba66609b66",
	"easy.widest":            "0240ebedf7d3638cb53f9353e747cfdc2afb1e71d7ff978d207f157326b1ce03",
	"easy.narrowest":         "6d32b13b67d9181a9bf65f0f8f19e290cb47ffcfe84f4b17218f41ece0900980",
	"cons.fcfs":              "8c846da421df8c411a567d6dc003112ba63f55d53d613eeaa320723b6f1215c3",
	"cons.sjf":               "97eb7b7d7e0b2500a833d4bb24f80f0e571d75ee4ca371ddbea4ebfa73522d10",
	"cons.lxf":               "8c4685500052fa938cc056ea813146eacc3d18494065b6f931d40067c523f68e",
	"consdyn.sjf":            "ac874e01796c411ed2c77ec19cc3da7d51c7e8940b3fa24446a3122b22673b31",
	"consdyn.lxf":            "b44941ffae4782b31f89b76872158ece4afc5469f600926be831b428c62ef39a",
	"cplant24.nomax.q75":     "bd28203f3f568c917d44e8c9c04f09ec8812f4e0b2334a041c90969fc797cecf",
	"cplant24.nomax.abs280h": "4640d4fcb274c82d7afafb94f2ad5e59caa58c3f80f4ecd0545b842a138dbd64",
	"cplant24.sjf":           "8b0e32499b459bc7ee907fd2683b6ef01e0374c5f243d8bf499d32069051b9a2",
	"cplant24.lxf":           "c2dac3b2039c5d8234c9ff7d44df80a0d65b6009982714177382b05fda034270",
	"easy.starve24":          "7dfe9187571d3accdc01d3da86c8258eaf3a6f15accbcce6221dcec024c5b246",
	"depth2":                 "50dd53fcda3c8d7abbabff36560bed10f4bcbb8f84c28b829c8792893a5ce821",
	"depth4":                 "940304edf0fc501a8c54d9e2f833d6e33687d46b312506aa66f1ac831bd4dbc2",
	"depth8":                 "886c64e3619dd8476b26a6cb791c709d852a842cbba06350b48e433e8c9ad761",
	"depth8.fcfs":            "416f8f0978293cafc0ca5250acac68e234cdb1e095e34f77495061b9e2bc5832",
	"cplant24.depth2":        "9408afd6b82c0fe4f6c5a0e2054347b2d50e3957de311f41c4291c5e4f730ddc",
	"easy.preempt":           "2d786355b9e64042e89acc1ce6444767fa08ccd63af4f21df30e660cd5500217",
	"srpt":                   "56b42595322c5fa0da7e514a4682d8f53a553d9a61d4f549567a1ff1fd7b9386",
	"edf":                    "c656c52f38c320cccb50e59386880b692355562d89bc3b0bdeaa992b911f1f6d",
	"edf.preempt":            "cfe1cee108c1612daf61a23c3e52e40cba4aaf6932f18bab97b91f718748c8c1",
}

// scheduleHash runs spec over jobs under every kill mode (and every split
// mode when the spec has a maximum runtime) with invariant checks on, and
// hashes the records and event counts in that fixed order. Runs share the
// workload read-only.
func scheduleHash(t *testing.T, spec sched.Spec, cfg StudyConfig, jobs []*job.Job) string {
	t.Helper()
	splits := []sim.SplitMode{sim.SplitUpfront}
	if spec.MaxRuntime > 0 {
		splits = append(splits, sim.SplitStaggered, sim.SplitChained)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, kill := range []sim.KillPolicy{sim.KillNever, sim.KillWhenNeeded, sim.KillAlways} {
		for _, split := range splits {
			cfg.Kill, cfg.Split = kill, split
			run, err := Execute(cfg, spec, jobs)
			if err != nil {
				t.Fatalf("%s kill=%v split=%v: %v", spec.Key, kill, split, err)
			}
			for _, r := range run.Result.Records {
				put(int64(r.Job.ID))
				put(r.Start)
				put(r.Complete)
			}
			put(run.Result.Events)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRegistrySchedulesGolden is the registry × kill × split invariant
// matrix: every builtin policy runs with Validate on under every mode, and
// its schedule must match the recorded hash byte for byte.
func TestRegistrySchedulesGolden(t *testing.T) {
	cfg := StudyConfig{SystemSize: 100, Validate: true, SkipFST: true}
	jobs, err := workload.Generate(workload.Config{Seed: 7, Scale: 0.05, SystemSize: cfg.SystemSize})
	if err != nil {
		t.Fatal(err)
	}
	// The deadline-aware entries read per-user SLO targets; without them
	// edf degrades to FCFS and the deadline trigger never fires.
	tiers, err := scenario.Parse("slo=p50:30m,default:4h")
	if err != nil {
		t.Fatal(err)
	}
	targets, err := tiers.SLOAssignment(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sched.Builtins() {
		t.Run(b.Key, func(t *testing.T) {
			t.Parallel()
			cfg := cfg
			if b.Order == "edf" || b.PreemptTrigger == sched.PreemptDeadline {
				cfg.SLO = targets
			}
			got := scheduleHash(t, b.Spec, cfg, jobs)
			if want, ok := registryGolden[b.Key]; !ok || got != want {
				t.Errorf("schedule hash changed; recorded %q, now:\n\t%q: %q,", want, b.Key, got)
			}
		})
	}
	if len(registryGolden) != len(sched.Builtins()) {
		t.Errorf("registryGolden has %d entries for %d builtins", len(registryGolden), len(sched.Builtins()))
	}
}
