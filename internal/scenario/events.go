package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// eventKinds names every supported event, for error messages.
var eventKinds = []string{
	"capacity_cut", "degradation", "enable_fleet_sharing", "enable_gossip_sharing",
	"flash_crowd", "host_reboot", "path_flap", "peer_partition", "rolling_reboots",
	"set_knob",
}

// parseEvents decodes and validates the event stream. Events must be listed
// in non-decreasing At order so the file reads like the incident timeline it
// is.
func parseEvents(n *Node, pops map[string]bool, total time.Duration) ([]Event, error) {
	if n.Kind != SeqNode {
		return nil, fmt.Errorf("line %d: events must be a sequence", n.Line)
	}
	var out []Event
	for _, item := range n.Items {
		ev, err := parseEvent(item, pops, total)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 && ev.At < out[len(out)-1].At {
			return nil, fmt.Errorf("line %d: event at %v listed after one at %v (events must be in time order)",
				ev.Line, ev.At, out[len(out)-1].At)
		}
		out = append(out, ev)
	}
	return out, nil
}

func parseEvent(n *Node, pops map[string]bool, total time.Duration) (Event, error) {
	var ev Event
	if err := needMap(n, "event"); err != nil {
		return ev, err
	}
	ev.Line = n.Line
	atNode := n.Get("at")
	if atNode == nil {
		return ev, fmt.Errorf("line %d: event needs an at time", n.Line)
	}
	at, err := atNode.Duration()
	if err != nil {
		return ev, err
	}
	if at < 0 || at >= total {
		return ev, fmt.Errorf("line %d: event at %v outside the run [0, %v)", atNode.Line, at, total)
	}
	ev.At = at
	for i, key := range n.Keys {
		if key == "at" {
			continue
		}
		if ev.Payload != nil {
			return ev, fmt.Errorf("line %d: event has two kinds (%q and %q); one per entry", n.KeyLines[i], ev.Kind, key)
		}
		payload, err := parsePayload(key, n.Vals[i])
		if err != nil {
			return ev, err
		}
		ev.Kind = key
		ev.Payload = payload
	}
	if ev.Payload == nil {
		return ev, fmt.Errorf("line %d: event needs a kind (valid: %s)", n.Line, strings.Join(eventKinds, " "))
	}
	if err := ev.Payload.validate(pops, ev.At, total); err != nil {
		return ev, fmt.Errorf("line %d: %s: %w", ev.Line, ev.Kind, err)
	}
	return ev, nil
}

func parsePayload(kind string, n *Node) (EventPayload, error) {
	switch kind {
	case "capacity_cut":
		return parseCapacityCut(n)
	case "host_reboot":
		return parseHostReboot(n)
	case "rolling_reboots":
		return parseRollingReboots(n)
	case "flash_crowd":
		return parseFlashCrowd(n)
	case "path_flap":
		return parsePathFlap(n)
	case "peer_partition":
		return parsePeerPartition(n)
	case "degradation":
		return parseDegradation(n)
	case "enable_fleet_sharing":
		return parseFleetSharing(n)
	case "enable_gossip_sharing":
		return parseGossipSharing(n)
	case "set_knob":
		return parseKnob(n)
	}
	return nil, fmt.Errorf("line %d: unknown event kind %q (valid: %s)", n.Line, kind, strings.Join(eventKinds, " "))
}

// Field helpers shared by the payload parsers.

func getStr(n *Node, key string, dst *string) error {
	if v := n.Get(key); v != nil {
		s, err := v.Str()
		if err != nil {
			return err
		}
		*dst = s
	}
	return nil
}

func getDur(n *Node, key string, dst *time.Duration) error {
	if v := n.Get(key); v != nil {
		d, err := v.Duration()
		if err != nil {
			return err
		}
		*dst = d
	}
	return nil
}

func getInt(n *Node, key string, dst *int) error {
	if v := n.Get(key); v != nil {
		iv, err := v.Int()
		if err != nil {
			return err
		}
		*dst = int(iv)
	}
	return nil
}

func getFloat(n *Node, key string, dst *float64) error {
	if v := n.Get(key); v != nil {
		f, err := v.Float()
		if err != nil {
			return err
		}
		*dst = f
	}
	return nil
}

func knownPoP(pops map[string]bool, name string) error {
	if !pops[name] {
		names := make([]string, 0, len(pops))
		for p := range pops {
			names = append(names, p)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown PoP %q (fleet: %s)", name, strings.Join(names, " "))
	}
	return nil
}

// capacity_cut

func parseCapacityCut(n *Node) (EventPayload, error) {
	if err := needMap(n, "capacity_cut"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "pop", "from", "for", "segments", "restore_segments"); err != nil {
		return nil, err
	}
	e := &CapacityCutEvent{}
	for _, step := range []error{
		getStr(n, "pop", &e.PoP), getStr(n, "from", &e.From),
		getDur(n, "for", &e.For), getInt(n, "segments", &e.Segments),
		getInt(n, "restore_segments", &e.RestoreSegments),
	} {
		if step != nil {
			return nil, step
		}
	}
	return e, nil
}

func (e *CapacityCutEvent) validate(pops map[string]bool, at, total time.Duration) error {
	if err := knownPoP(pops, e.PoP); err != nil {
		return err
	}
	if e.From != "" {
		if err := knownPoP(pops, e.From); err != nil {
			return err
		}
		if e.From == e.PoP {
			return fmt.Errorf("pop and from must differ, got %q twice", e.PoP)
		}
	}
	if e.Segments < 1 {
		return fmt.Errorf("segments %d must be >= 1", e.Segments)
	}
	if e.RestoreSegments < 0 {
		return fmt.Errorf("restore_segments %d must be >= 0", e.RestoreSegments)
	}
	if e.For < 0 {
		return fmt.Errorf("for %v must not be negative", e.For)
	}
	return nil
}

func (e *CapacityCutEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	if e.For == 0 {
		return at, total
	}
	return at, at + e.For
}

func (e *CapacityCutEvent) affected() []string {
	if e.From != "" {
		return []string{e.PoP, e.From}
	}
	return []string{e.PoP}
}

// host_reboot

func parseHostReboot(n *Node) (EventPayload, error) {
	if err := needMap(n, "host_reboot"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "pop", "host", "for", "track_recovery"); err != nil {
		return nil, err
	}
	e := &HostRebootEvent{}
	for _, step := range []error{
		getStr(n, "pop", &e.PoP), getInt(n, "host", &e.Host),
		getDur(n, "for", &e.For), getFloat(n, "track_recovery", &e.TrackRecovery),
	} {
		if step != nil {
			return nil, step
		}
	}
	return e, nil
}

func (e *HostRebootEvent) validate(pops map[string]bool, at, total time.Duration) error {
	if err := knownPoP(pops, e.PoP); err != nil {
		return err
	}
	if e.Host < 0 {
		return fmt.Errorf("host index %d must not be negative", e.Host)
	}
	if e.For < 0 {
		return fmt.Errorf("for %v must not be negative", e.For)
	}
	if e.TrackRecovery < 0 || e.TrackRecovery > 1 {
		return fmt.Errorf("track_recovery %v out of [0,1]", e.TrackRecovery)
	}
	return nil
}

func (e *HostRebootEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	if e.For == 0 {
		return at, total
	}
	return at, at + e.For
}

func (e *HostRebootEvent) affected() []string { return []string{e.PoP} }

// rolling_reboots

func parseRollingReboots(n *Node) (EventPayload, error) {
	if err := needMap(n, "rolling_reboots"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "pops", "interval", "track_recovery"); err != nil {
		return nil, err
	}
	e := &RollingRebootsEvent{}
	if v := n.Get("pops"); v != nil {
		var err error
		if e.PoPs, err = v.StrSeq(); err != nil {
			return nil, err
		}
	}
	for _, step := range []error{
		getDur(n, "interval", &e.Interval), getFloat(n, "track_recovery", &e.TrackRecovery),
	} {
		if step != nil {
			return nil, step
		}
	}
	return e, nil
}

func (e *RollingRebootsEvent) validate(pops map[string]bool, at, total time.Duration) error {
	if len(e.PoPs) == 0 {
		return fmt.Errorf("needs at least one PoP")
	}
	for _, p := range e.PoPs {
		if err := knownPoP(pops, p); err != nil {
			return err
		}
	}
	if e.Interval <= 0 {
		return fmt.Errorf("interval %v must be positive", e.Interval)
	}
	if e.TrackRecovery < 0 || e.TrackRecovery > 1 {
		return fmt.Errorf("track_recovery %v out of [0,1]", e.TrackRecovery)
	}
	return nil
}

func (e *RollingRebootsEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	return at, at + time.Duration(len(e.PoPs))*e.Interval
}

func (e *RollingRebootsEvent) affected() []string { return e.PoPs }

// flash_crowd

func parseFlashCrowd(n *Node) (EventPayload, error) {
	if err := needMap(n, "flash_crowd"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "target", "for", "rate_per_pop", "size_kb"); err != nil {
		return nil, err
	}
	e := &FlashCrowdEvent{}
	for _, step := range []error{
		getStr(n, "target", &e.Target), getDur(n, "for", &e.For),
		getFloat(n, "rate_per_pop", &e.RatePerPoP), getInt(n, "size_kb", &e.SizeKB),
	} {
		if step != nil {
			return nil, step
		}
	}
	return e, nil
}

func (e *FlashCrowdEvent) validate(pops map[string]bool, at, total time.Duration) error {
	if err := knownPoP(pops, e.Target); err != nil {
		return err
	}
	if e.For <= 0 || e.RatePerPoP <= 0 {
		return fmt.Errorf("needs positive for and rate_per_pop")
	}
	if e.SizeKB < 0 {
		return fmt.Errorf("size_kb %d must not be negative", e.SizeKB)
	}
	return nil
}

func (e *FlashCrowdEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	return at, at + e.For
}

func (e *FlashCrowdEvent) affected() []string { return []string{e.Target} }

// path_flap

func parsePathFlap(n *Node) (EventPayload, error) {
	if err := needMap(n, "path_flap"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "a", "b", "for", "rtt_scale"); err != nil {
		return nil, err
	}
	e := &PathFlapEvent{}
	for _, step := range []error{
		getStr(n, "a", &e.A), getStr(n, "b", &e.B),
		getDur(n, "for", &e.For), getFloat(n, "rtt_scale", &e.RTTScale),
	} {
		if step != nil {
			return nil, step
		}
	}
	return e, nil
}

func (e *PathFlapEvent) validate(pops map[string]bool, at, total time.Duration) error {
	if err := knownPoP(pops, e.A); err != nil {
		return err
	}
	if err := knownPoP(pops, e.B); err != nil {
		return err
	}
	if e.A == e.B {
		return fmt.Errorf("a and b must differ, got %q twice", e.A)
	}
	if e.For <= 0 {
		return fmt.Errorf("for %v must be positive", e.For)
	}
	if e.RTTScale <= 0 {
		return fmt.Errorf("rtt_scale %v must be positive", e.RTTScale)
	}
	return nil
}

func (e *PathFlapEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	return at, at + e.For
}

func (e *PathFlapEvent) affected() []string { return []string{e.A, e.B} }

// peer_partition

func parsePeerPartition(n *Node) (EventPayload, error) {
	if err := needMap(n, "peer_partition"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "a", "b", "for"); err != nil {
		return nil, err
	}
	e := &PeerPartitionEvent{}
	for _, step := range []error{
		getStr(n, "a", &e.A), getStr(n, "b", &e.B), getDur(n, "for", &e.For),
	} {
		if step != nil {
			return nil, step
		}
	}
	return e, nil
}

func (e *PeerPartitionEvent) validate(pops map[string]bool, at, total time.Duration) error {
	if err := knownPoP(pops, e.A); err != nil {
		return err
	}
	if err := knownPoP(pops, e.B); err != nil {
		return err
	}
	if e.A == e.B {
		return fmt.Errorf("a and b must differ, got %q twice", e.A)
	}
	if e.For <= 0 {
		return fmt.Errorf("for %v must be positive", e.For)
	}
	return nil
}

func (e *PeerPartitionEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	return at, at + e.For
}

func (e *PeerPartitionEvent) affected() []string { return []string{e.A, e.B} }

// degradation

func parseDegradation(n *Node) (EventPayload, error) {
	if err := needMap(n, "degradation"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "pop", "for", "loss_rate"); err != nil {
		return nil, err
	}
	e := &DegradationEvent{}
	for _, step := range []error{
		getStr(n, "pop", &e.PoP), getDur(n, "for", &e.For), getFloat(n, "loss_rate", &e.LossRate),
	} {
		if step != nil {
			return nil, step
		}
	}
	return e, nil
}

func (e *DegradationEvent) validate(pops map[string]bool, at, total time.Duration) error {
	if err := knownPoP(pops, e.PoP); err != nil {
		return err
	}
	if e.For <= 0 {
		return fmt.Errorf("for %v must be positive", e.For)
	}
	if e.LossRate <= 0 || e.LossRate >= 1 {
		return fmt.Errorf("loss_rate %v out of (0,1)", e.LossRate)
	}
	return nil
}

func (e *DegradationEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	return at, at + e.For
}

func (e *DegradationEvent) affected() []string { return []string{e.PoP} }

// enable_fleet_sharing

func parseFleetSharing(n *Node) (EventPayload, error) {
	if err := needMap(n, "enable_fleet_sharing"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "interval"); err != nil {
		return nil, err
	}
	e := &FleetSharingEvent{}
	if err := getDur(n, "interval", &e.Interval); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *FleetSharingEvent) validate(pops map[string]bool, at, total time.Duration) error {
	if e.Interval <= 0 {
		return fmt.Errorf("interval %v must be positive", e.Interval)
	}
	if at != 0 {
		return fmt.Errorf("must fire at 0s (sharing starts with the run)")
	}
	return nil
}

func (e *FleetSharingEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	return 0, 0 // not a disruption
}

func (e *FleetSharingEvent) affected() []string { return nil }

// enable_gossip_sharing

func parseGossipSharing(n *Node) (EventPayload, error) {
	if err := needMap(n, "enable_gossip_sharing"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "interval", "seed_entries"); err != nil {
		return nil, err
	}
	e := &GossipSharingEvent{}
	for _, step := range []error{
		getDur(n, "interval", &e.Interval), getInt(n, "seed_entries", &e.SeedEntries),
	} {
		if step != nil {
			return nil, step
		}
	}
	return e, nil
}

func (e *GossipSharingEvent) validate(pops map[string]bool, at, total time.Duration) error {
	if e.Interval <= 0 {
		return fmt.Errorf("interval %v must be positive", e.Interval)
	}
	if e.SeedEntries < 0 {
		return fmt.Errorf("seed_entries %d must not be negative", e.SeedEntries)
	}
	if at != 0 {
		return fmt.Errorf("must fire at 0s (gossip starts with the run)")
	}
	return nil
}

func (e *GossipSharingEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	return 0, 0 // not a disruption
}

func (e *GossipSharingEvent) affected() []string { return nil }

// set_knob

func parseKnob(n *Node) (EventPayload, error) {
	if err := needMap(n, "set_knob"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "knob", "pop", "a", "b", "value"); err != nil {
		return nil, err
	}
	e := &KnobEvent{}
	for _, step := range []error{
		getStr(n, "knob", &e.Knob), getStr(n, "pop", &e.PoP),
		getStr(n, "a", &e.A), getStr(n, "b", &e.B), getFloat(n, "value", &e.Value),
	} {
		if step != nil {
			return nil, step
		}
	}
	return e, nil
}

func (e *KnobEvent) validate(pops map[string]bool, at, total time.Duration) error {
	switch e.Knob {
	case KnobPoPLoss, KnobPoPCapacity:
		if err := knownPoP(pops, e.PoP); err != nil {
			return err
		}
		if e.A != "" || e.B != "" {
			return fmt.Errorf("knob %q takes pop, not a/b", e.Knob)
		}
	case KnobPairCapacity, KnobPairRTTMs:
		if err := knownPoP(pops, e.A); err != nil {
			return err
		}
		if err := knownPoP(pops, e.B); err != nil {
			return err
		}
		if e.A == e.B {
			return fmt.Errorf("a and b must differ, got %q twice", e.A)
		}
		if e.PoP != "" {
			return fmt.Errorf("knob %q takes a/b, not pop", e.Knob)
		}
	default:
		return fmt.Errorf("unknown knob %q (valid: %s %s %s %s)",
			e.Knob, KnobPairCapacity, KnobPairRTTMs, KnobPoPCapacity, KnobPoPLoss)
	}
	switch e.Knob {
	case KnobPoPLoss:
		if e.Value < 0 || e.Value >= 1 {
			return fmt.Errorf("value %v out of [0,1)", e.Value)
		}
	case KnobPoPCapacity, KnobPairCapacity:
		if e.Value < 0 || e.Value != float64(int(e.Value)) {
			return fmt.Errorf("value %v must be a non-negative integer segment count", e.Value)
		}
	case KnobPairRTTMs:
		if e.Value <= 0 {
			return fmt.Errorf("value %v must be a positive RTT in milliseconds", e.Value)
		}
	}
	return nil
}

func (e *KnobEvent) window(at, total time.Duration) (time.Duration, time.Duration) {
	return 0, 0 // raw knobs carry no implied window; use the window block
}

func (e *KnobEvent) affected() []string {
	if e.PoP != "" {
		return []string{e.PoP}
	}
	return []string{e.A, e.B}
}
