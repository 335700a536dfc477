// Conforming twin of daemon_accounting_bad.cc: zero findings. The
// sampler registers a periodic service with EventQueue::every
// (mirrors the Machine's stats service) and never schedules itself;
// the one-shot event below never re-arms, so the rule does not
// apply to it.

namespace fixture
{

class EventQueue
{
  public:
    unsigned long long now() const;
    void every(unsigned long long interval,
               bool (*fn)(void *ctx, unsigned long long now),
               void *ctx);
    void schedule(unsigned long long when, void (*fn)(void *),
                  void *arg);
};

class GoodSampler
{
  public:
    void start();

  private:
    static bool sample(void *ctx, unsigned long long now);

    EventQueue *eq_ = nullptr;
    unsigned long long interval_ = 1000;
    unsigned long long samples_ = 0;
};

void
GoodSampler::start()
{
    eq_->every(interval_, &GoodSampler::sample, this);
}

bool
GoodSampler::sample(void *ctx, unsigned long long now)
{
    (void)now;
    static_cast<GoodSampler *>(ctx)->samples_ += 1;
    return true;
}

class OneShot
{
  public:
    void arm();

  private:
    static void fireEvent(void *arg);

    EventQueue *eq_ = nullptr;
};

void
OneShot::arm()
{
    // Never re-arms: a plain event, not a periodic one.
    eq_->schedule(eq_->now() + 5, &OneShot::fireEvent, this);
}

void
OneShot::fireEvent(void *arg)
{
    (void)arg;
}

} // namespace fixture
