package cdn

import (
	"testing"
	"time"

	"riptide/internal/netsim"
)

func TestSetPoPPathLoss(t *testing.T) {
	c := newSmallCluster(t, false, 41)
	if err := c.SetPoPPathLoss("atlantis", 0.1); err == nil {
		t.Error("unknown PoP accepted")
	}
	if err := c.SetPoPPathLoss("nrt", 0.2); err != nil {
		t.Fatal(err)
	}
	// A transfer to the degraded PoP must now see heavy loss.
	var res netsim.TransferResult
	if err := c.InjectTransfer("lhr", "nrt", 512*1024, func(r netsim.TransferResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Minute)
	if res.Retransmits == 0 {
		t.Error("degraded path produced no retransmits")
	}
	c.Stop()
}

func TestInjectTransferValidation(t *testing.T) {
	c := newSmallCluster(t, false, 42)
	if err := c.InjectTransfer("nope", "lhr", 100, nil); err == nil {
		t.Error("unknown src accepted")
	}
	if err := c.InjectTransfer("lhr", "nope", 100, nil); err == nil {
		t.Error("unknown dst accepted")
	}
	if err := c.InjectTransfer("lhr", "lhr", 100, nil); err == nil {
		t.Error("intra-PoP transfer accepted")
	}
	c.Stop()
}

// TestPoPPairValidation: every pair primitive rejects unknown PoPs and a
// PoP paired with itself before touching the network.
func TestPoPPairValidation(t *testing.T) {
	c := newSmallCluster(t, false, 47)
	defer c.Stop()
	for _, pair := range [][2]string{{"lhr", "nope"}, {"nope", "lhr"}, {"lhr", "lhr"}} {
		a, b := pair[0], pair[1]
		if err := c.SetPoPPairCapacity(a, b, 10); err == nil {
			t.Errorf("SetPoPPairCapacity(%s, %s) accepted", a, b)
		}
		if err := c.SetPoPPairRTT(a, b, time.Second); err == nil {
			t.Errorf("SetPoPPairRTT(%s, %s) accepted", a, b)
		}
		if _, err := c.PartitionPoPs(a, b, true); err == nil {
			t.Errorf("PartitionPoPs(%s, %s) accepted", a, b)
		}
	}
	if _, err := c.BaselinePairRTT("lhr", "nope"); err == nil {
		t.Error("BaselinePairRTT with an unknown PoP accepted")
	}
	if err := c.SetPoPPathCapacity("nope", 10); err == nil {
		t.Error("SetPoPPathCapacity with an unknown PoP accepted")
	}
}

func TestRTTBucketString(t *testing.T) {
	if BucketClose.String() != "<50ms" || BucketVeryFar.String() != ">150ms" {
		t.Error("bucket names wrong")
	}
	if RTTBucket(99).String() == "" {
		t.Error("unknown bucket empty")
	}
}

func TestClusterCountersAndQuarantineAccessors(t *testing.T) {
	c, err := NewCluster(Config{
		PoPs:     smallTopology(),
		Seed:     51,
		LossRate: 0.05,
		Riptide:  RiptideOptions{Enabled: true},
		Traffic: TrafficOptions{
			ProbeInterval: 20 * time.Second,
			OrganicRates:  map[string]float64{"lhr": 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)
	defer c.Stop()
	if c.TotalRetransmits() == 0 {
		t.Error("lossy cluster recorded no retransmits")
	}
	if c.TotalRoutes() == 0 {
		t.Error("riptide cluster learned no routes")
	}
	// No guard configured: quarantine count is zero by definition.
	if got := c.QuarantineCount(); got != 0 {
		t.Errorf("guardless QuarantineCount = %d", got)
	}
}
