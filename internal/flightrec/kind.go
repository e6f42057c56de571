package flightrec

import "fmt"

// Kind identifies one class of discrete event in the flight journal.
// The numeric values are part of the journal's wire contract: they ride
// in the record's kind field, so renumbering an existing kind is a
// format-version bump (FormatName), not an edit here.  Appending new
// kinds is free — old readers print the raw number, new readers the
// name — which is exactly the evolvability the paper claims for
// self-describing formats.
type Kind int32

const (
	// KindNone is the zero value, never emitted.
	KindNone Kind = iota

	// Transport-level events.
	KindConnOpen        // a wire connection came up (subject: peer role or address)
	KindConnClose       // a wire connection went away
	KindChecksumFailure // a frame's CRC32-C did not match its body
	KindDeadlineTimeout // a read or write hit its configured deadline

	// Relay events.
	KindConsumerJoin     // a consumer registered (arg1: consumer count after)
	KindConsumerLeave    // a consumer disconnected on its own
	KindQueueEvict       // drop-oldest evicted a frame (arg1: records lost, arg2: traced records lost)
	KindPolicyDisconnect // a slow consumer was dropped by queue policy
	KindStallOnset       // a consumer queue stopped draining (arg1: queue depth)
	KindStallClear       // a previously stalled queue drained again
	KindUplinkAttach     // this relay attached below an upstream relay
	KindUplinkRedial     // the uplink dial failed; retrying (arg1: backoff nanos)

	// Format-server events.
	KindFmtRegister // the format server accepted a format registration
	KindFmtRetry    // a format-server round trip failed and is being retried (arg1: attempt)

	// PBIO context events.
	KindMetaRegister    // a format was laid out and registered in a context (arg1: record size)
	KindDCGCompile      // a conversion program was compiled (arg1: compile nanos; arg2: fused shape, see BatchShape — 0 in journals written before the engines merged)
	kindDCGBatchCompile // retired with the separate batch engine; never emitted, named so old journals still render

	// Appended when the string trace ring was retired: the events it
	// alone carried.
	KindResync          // relay: a corrupt producer frame was skipped and the stream re-aligned
	KindProducerDropped // relay: a producer or uplink was dropped (subject: the cause)
	KindSubscription    // relay: a consumer's want-list was applied (subject: the consumer; arg1: names wanted, 0 = all)
	KindFormatLearned   // transport: a reader bound a format new to its stream (subject: format name)

	numKinds
)

var kindNames = [...]string{
	KindNone:             "None",
	KindConnOpen:         "ConnOpen",
	KindConnClose:        "ConnClose",
	KindChecksumFailure:  "ChecksumFailure",
	KindDeadlineTimeout:  "DeadlineTimeout",
	KindConsumerJoin:     "ConsumerJoin",
	KindConsumerLeave:    "ConsumerLeave",
	KindQueueEvict:       "QueueEvict",
	KindPolicyDisconnect: "PolicyDisconnect",
	KindStallOnset:       "StallOnset",
	KindStallClear:       "StallClear",
	KindUplinkAttach:     "UplinkAttach",
	KindUplinkRedial:     "UplinkRedial",
	KindFmtRegister:      "FmtRegister",
	KindFmtRetry:         "FmtRetry",
	KindMetaRegister:     "MetaRegister",
	KindDCGCompile:       "DCGCompile",
	kindDCGBatchCompile:  "DCGBatchCompile",
	KindResync:           "Resync",
	KindProducerDropped:  "ProducerDropped",
	KindSubscription:     "Subscription",
	KindFormatLearned:    "FormatLearned",
}

// String returns the symbolic name of the kind, or "Kind(n)" for values
// this build does not know (a journal written by a newer recorder).
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int32(k))
}

// KindName is the exported lookup used by pbio-dump to print journal
// records symbolically without importing the recorder machinery.
func KindName(n int32) string { return Kind(n).String() }
