#include "sim/event_queue.hh"

#include <bit>

#include "sim/hostprof.hh"

namespace minnow
{

/*
 * Determinism argument (see also DESIGN.md "Event queue"):
 *
 * The observable contract is that events fire in (when, seq) order,
 * where seq is the global scheduling order. The wheel preserves it
 * without storing seq in bucket entries:
 *
 *  - A bucket holds only events for one cycle X (wheel entries
 *    satisfy now_ <= when < now_ + kWheelBuckets, so the index
 *    `when mod kWheelBuckets` is unambiguous), and push_back keeps
 *    them in scheduling order.
 *  - Once X enters the horizon (X - now_ < kWheelBuckets), it never
 *    leaves it: now_ is monotonic. So no event for X can be pushed
 *    to the overflow heap after any direct schedule for X existed.
 *  - advance() migrates overflow events into the wheel *eagerly*,
 *    before any user code runs at the new now_. The first advance
 *    that brings X inside the horizon therefore moves every overflow
 *    event for X (all scheduled earlier than any direct schedule for
 *    X, hence with smaller seq) into the bucket before the first
 *    direct schedule for X can happen, in heap (when, seq) order.
 *
 * Hence bucket position == seq order, and only the overflow heap
 * needs an explicit tie-break.
 */

std::uint64_t
EventQueue::run(std::uint64_t maxEvents)
{
    panic_if(running_,
             "EventQueue::run() re-entered from inside an event");
    running_ = true;
    stopped_ = false;
    interrupted_ = false;
    if (prof_)
        prof_->beginRun();

    // Budget/diag handling is hoisted out of the per-event path: the
    // loop only decrements a counter, and the warn/diagnostic-hook
    // logic runs once after the loop.
    const std::uint64_t budget0 =
        maxEvents ? maxEvents : ~std::uint64_t(0);
    std::uint64_t budget = budget0;

    while (size_ != 0 && budget != 0 && !stopped_) {
        // Checkpoint triggers and the signal-interrupt poll live in
        // a cold helper behind one almost-always-false flag so the
        // hot path pays a single predicted branch.
        if (triggersArmed_ && pollTriggers()) [[unlikely]]
            break;
        Bucket &b = buckets_[std::size_t(now_) & kWheelMask];
        if (cursor_ >= b.size()) {
            // Bucket for now_ fully drained: recycle its storage
            // (clear() keeps capacity) and advance the clock.
            b.clear();
            std::size_t idx = std::size_t(now_) & kWheelMask;
            occupied_[idx >> 6] &=
                ~(std::uint64_t(1) << (idx & 63));
            cursor_ = 0;
            advance();
            continue;
        }
        // Copy out: executing the event may schedule at now_ and
        // grow (reallocate) this same bucket.
        Compact ev = b[cursor_++];
        --size_; // the executing event no longer counts as pending
        --budget;
        if (prof_)
            prof_->eventTick(size_);
        if (ev.fn)
            ev.fn(ev.arg);
        else
            std::coroutine_handle<>::from_address(ev.arg).resume();
        ++executed_;
    }

    // Normalize before returning so the occupancy bitmap is exact
    // across run() calls: if the loop exited with the now_ bucket
    // fully consumed but not yet recycled, recycle it here.
    {
        std::size_t idx = std::size_t(now_) & kWheelMask;
        Bucket &b = buckets_[idx];
        if (cursor_ != 0 && cursor_ >= b.size()) {
            b.clear();
            occupied_[idx >> 6] &=
                ~(std::uint64_t(1) << (idx & 63));
            cursor_ = 0;
        }
    }

    running_ = false;
    if (prof_)
        prof_->endRun();

    if (budget == 0 && size_ != 0 && !stopped_) {
        // Only a real timeout warns: hitting the budget on the very
        // last event is a completed run.
        warn("event budget of %llu exhausted; stopping simulation",
             (unsigned long long)maxEvents);
        if (diagHook_)
            diagHook_("event budget exhausted");
    }
    return budget0 - budget;
}

void
EventQueue::every(Cycle interval, Service fn, void *ctx)
{
    panic_if(interval == 0, "periodic service interval must be > 0");
    services_.push_back(Periodic{this, fn, ctx, interval});
    daemonScheduled();
    schedule(now_ + interval, &EventQueue::serviceEvent,
             &services_.back());
}

void
EventQueue::serviceEvent(void *arg)
{
    auto *s = static_cast<Periodic *>(arg);
    EventQueue &eq = *s->eq;
    eq.daemonFired();
    // Re-arm only while non-service work remains: against empty()
    // alone, any two services would keep each other alive forever.
    if (s->fn(s->ctx, eq.now_) && !eq.quiescent()) {
        eq.daemonScheduled();
        eq.schedule(eq.now_ + s->interval, &EventQueue::serviceEvent,
                    s);
    }
}

bool
EventQueue::pollTriggers()
{
    // One-shot stop trigger: halts between events and schedules
    // nothing, so a run with the trigger armed executes the same
    // event sequence as one without — the caller can run() again to
    // continue bit-identically.
    if (stopTriggerArmed_ && now_ >= stopAtCycle_ &&
        executed_ >= stopAtExec_) {
        stopTriggerArmed_ = false;
        stopTriggerFired_ = true;
        triggersArmed_ = interruptSource_ != nullptr;
        return true;
    }
    // Poll the signal flag only every 1024 events: a volatile read
    // per event would be measurable on the simspeed microbenchmark.
    if (interruptSource_ && (executed_ & 1023) == 0 &&
        *interruptSource_ != 0) {
        interrupted_ = true;
        return true;
    }
    return false;
}

void
EventQueue::advance()
{
    // The caller drained the bucket for now_; every remaining wheel
    // event lies strictly after now_ and strictly before
    // now_ + kWheelBuckets, while every overflow event lies at or
    // beyond now_ + kWheelBuckets — so the wheel, when non-empty,
    // always holds the earlier event.
    std::size_t wheelCount = size_ - far_.size();
    if (wheelCount != 0) {
        now_ = nextWheelTime();
    } else {
        now_ = far_.top().when;
    }

    // Eagerly pull overflow events that just entered the horizon
    // into their buckets, in (when, seq) order, before any event at
    // the new now_ executes. This keeps every bucket in global
    // scheduling order (see the file-top determinism argument).
    while (!far_.empty() &&
           far_.top().when - now_ < kWheelBuckets) {
        const FarEvent &fe = far_.top();
        std::size_t idx = std::size_t(fe.when) & kWheelMask;
        buckets_[idx].push_back(fe.ev);
        occupied_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
        far_.pop();
    }
}

Cycle
EventQueue::nextWheelTime() const
{
    // Scan bucket indices in cycle order starting at now_ + 1: the
    // first word is masked below its start bit, then whole words
    // wrap around; the final iteration re-reads the first word so
    // its low (wrapped-around, i.e. farthest-cycle) bits are seen
    // last. A stale bit for the consumed now_ bucket maps to the
    // farthest possible cycle and cannot shadow a real event.
    const std::size_t start = (std::size_t(now_) + 1) & kWheelMask;
    std::size_t word = start >> 6;
    std::uint64_t bits =
        occupied_[word] & (~std::uint64_t(0) << (start & 63));
    for (std::size_t n = 0; n <= kWheelWords; ++n) {
        if (bits) {
            std::size_t idx =
                (word << 6) +
                std::size_t(std::countr_zero(bits));
            Cycle delta = Cycle((idx - start) & kWheelMask);
            return now_ + 1 + delta;
        }
        word = (word + 1) & (kWheelWords - 1);
        bits = occupied_[word];
    }
    panic("event wheel scan found no occupied bucket");
    return now_;
}

Cycle
EventQueue::headTime() const
{
    if (size_ == 0)
        return now_;
    const Bucket &b = buckets_[std::size_t(now_) & kWheelMask];
    if (cursor_ < b.size())
        return now_; // events still pending at the current cycle
    if (size_ > far_.size())
        return nextWheelTime();
    return far_.top().when;
}

} // namespace minnow
