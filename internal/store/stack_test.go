package store

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// layers renders a composed stack by walking Unwrap, outermost first:
// each remote shows its endpoint and deadline, each fault layer its
// seed, and a quorum its W/R and every replica's own walk.
func layers(s Store) string {
	var parts []string
	for s != nil {
		switch l := s.(type) {
		case *QuotaStore:
			parts = append(parts, "quota")
		case *LeaseStore:
			parts = append(parts, "lease("+l.Holder()+")")
		case *QuorumStore:
			reps := make([]string, len(l.replicas))
			for i, r := range l.replicas {
				reps[i] = layers(r)
			}
			parts = append(parts, fmt.Sprintf("quorum%d/%d[%s]", l.w, l.r, strings.Join(reps, " ")))
		case checked:
			parts = append(parts, "codec")
		case *RemoteStore:
			parts = append(parts, fmt.Sprintf("remote(%s,%g)", l.cfg.Remote, l.Timeout()))
		case *FaultStore:
			parts = append(parts, fmt.Sprintf("fault(%d)", l.plan.Seed))
		case *MemStore:
			parts = append(parts, "mem")
		default:
			parts = append(parts, fmt.Sprintf("%T", s))
		}
		u, ok := s.(Unwrapper)
		if !ok {
			break
		}
		s = u.Unwrap()
	}
	return strings.Join(parts, ">")
}

func mems(n int) []Store {
	out := make([]Store, n)
	for i := range out {
		out[i] = NewMemStore()
	}
	return out
}

// TestStack pins the composition rules of every stack shape by walking
// Unwrap — layer order, endpoint names, fault seeds and deadlines — and
// the spec values Build rejects.
func TestStack(t *testing.T) {
	net := &netsim.Config{Seed: 3, Latency: 0.25, Jitter: 0.125}
	faults := &FaultPlan{Seed: 7, WriteFail: 0.1}
	ledger := NewQuotaLedger(Quota{}, nil)
	for _, tc := range []struct {
		name string
		spec Stack
		want string // layer walk, or the error substring when err is set
		err  bool
	}{
		{"file-like", Stack{Bottoms: mems(1)}, "codec>mem", false},
		{"faults", Stack{Bottoms: mems(1), Faults: faults}, "codec>fault(7)>mem", false},
		{"remote", Stack{Bottoms: mems(1), Net: net, Timeout: 1.5}, "codec>remote(s0,1.5)>mem", false},
		{"remote default timeout", Stack{Bottoms: mems(1), Net: net}, "codec>remote(s0,3)>mem", false},
		{"remote faults", Stack{Bottoms: mems(1), Faults: faults, Net: net}, "codec>remote(s0,3)>fault(7)>mem", false},
		{"quota", Stack{Bottoms: mems(1), Faults: faults, Ledger: ledger}, "quota>codec>fault(7)>mem", false},
		{"lease", Stack{Bottoms: mems(1), Lease: &LeaseConfig{Holder: "a"}}, "lease(a)>codec>mem", false},
		{"quorum sealed mems", Stack{Bottoms: mems(3), W: 2, R: 2}, "quorum2/2[codec>mem codec>mem codec>mem]", false},
		{"quorum majority", Stack{Bottoms: mems(2), Net: net}, "quorum2/2[codec>remote(s0,3)>mem codec>remote(s1,3)>mem]", false},
		{"full", Stack{Bottoms: mems(3), Faults: faults, Net: net, Timeout: 2, W: 3, R: 1, Lease: &LeaseConfig{}, Ledger: ledger},
			"quota>lease(exec)>quorum3/1[codec>remote(s0,2)>fault(7)>mem codec>remote(s1,2)>fault(8)>mem codec>remote(s2,2)>fault(9)>mem]", false},

		{"no bottoms", Stack{}, "at least one bottom", true},
		{"W > N", Stack{Bottoms: mems(3), W: 4}, "invalid for 3 replicas", true},
		{"R > N", Stack{Bottoms: mems(3), R: 4}, "invalid for 3 replicas", true},
		{"negative W", Stack{Bottoms: mems(3), W: -1}, "invalid for 3 replicas", true},
		{"W on one bottom", Stack{Bottoms: mems(1), W: 1}, "at least two bottoms", true},
		{"R on one bottom", Stack{Bottoms: mems(1), R: 1}, "at least two bottoms", true},
		{"timeout without net", Stack{Bottoms: mems(1), Timeout: 2}, "needs a network", true},
		{"negative timeout", Stack{Bottoms: mems(1), Net: net, Timeout: -1}, "negative", true},
		{"loss above 1", Stack{Bottoms: mems(1), Net: &netsim.Config{Loss: 2}}, "outside [0, 1]", true},
		{"negative loss", Stack{Bottoms: mems(1), Net: &netsim.Config{Loss: -0.1}}, "outside [0, 1]", true},
		{"negative latency", Stack{Bottoms: mems(1), Net: &netsim.Config{Latency: -1}}, "must not be negative", true},
		{"negative jitter", Stack{Bottoms: mems(1), Net: &netsim.Config{Jitter: -1}}, "must not be negative", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := tc.spec.Build()
			if tc.err {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Build = %v, want an error containing %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := layers(st); got != tc.want {
				t.Fatalf("layers:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestStackRebuild pins process-restart semantics: bottoms survive
// across Builds, while each Build creates one fresh network shared by
// all of its replicas.
func TestStackRebuild(t *testing.T) {
	spec := Stack{Bottoms: mems(3), Net: &netsim.Config{Seed: 5, Latency: 0.1}}
	remotes := func() []*RemoteStore {
		st, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var out []*RemoteStore
		for _, rep := range st.(*QuorumStore).replicas {
			rs, _ := find[*RemoteStore](rep)
			out = append(out, rs)
		}
		return out
	}
	a, b := remotes(), remotes()
	if a[0].net != a[2].net {
		t.Fatal("replicas of one Build sit on different networks")
	}
	if a[0].net == b[0].net {
		t.Fatal("two Builds share a network")
	}
	if a[1].inner != b[1].inner || a[1].inner != spec.Bottoms[1] {
		t.Fatal("bottoms did not survive across Builds")
	}
	if err := a[0].Save("r", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, err := b[0].Load("r", 1); err != nil || string(got) != "x" {
		t.Fatalf("rebuilt stack Load = %q, %v; want the first Build's write", got, err)
	}
}
