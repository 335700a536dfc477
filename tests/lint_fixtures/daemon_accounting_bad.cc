// Seeded violations for the `daemon-accounting` rule: periodic
// events that re-arm themselves instead of registering with
// EventQueue::every. Both re-arms are findings, the empty()-guarded
// one (the mutual-keepalive hang) and the one that re-implements the
// hub's daemon accounting by hand.

namespace fixture
{

class EventQueue
{
  public:
    unsigned long long now() const;
    bool empty() const;
    bool quiescent() const;
    void daemonScheduled();
    void daemonFired();
    void schedule(unsigned long long when, void (*fn)(void *),
                  void *arg);
};

class BadSampler
{
  public:
    void start();

  private:
    static void sampleEvent(void *arg);

    EventQueue *eq_ = nullptr;
    unsigned long long interval_ = 1000;
};

void
BadSampler::start()
{
    eq_->schedule(eq_->now() + interval_, &BadSampler::sampleEvent,
                  this);
}

void
BadSampler::sampleEvent(void *arg)
{
    auto *s = static_cast<BadSampler *>(arg);
    if (!s->eq_->empty()) {
        // finding: self-re-arm outside the hub.
        s->eq_->schedule(s->eq_->now() + s->interval_,
                         &BadSampler::sampleEvent, s);
    }
}

class HandRolledDaemon
{
  public:
    void start();

  private:
    static void tickEvent(void *arg);

    EventQueue *eq_ = nullptr;
    unsigned long long interval_ = 1000;
};

void
HandRolledDaemon::start()
{
    eq_->daemonScheduled();
    eq_->schedule(eq_->now() + interval_, &HandRolledDaemon::tickEvent,
                  this);
}

void
HandRolledDaemon::tickEvent(void *arg)
{
    auto *d = static_cast<HandRolledDaemon *>(arg);
    d->eq_->daemonFired();
    if (!d->eq_->quiescent()) {
        d->eq_->daemonScheduled();
        // finding: a correct hand-written protocol is still a copy.
        d->eq_->schedule(d->eq_->now() + d->interval_,
                         &HandRolledDaemon::tickEvent, d);
    }
}

} // namespace fixture
