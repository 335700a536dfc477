// Seeded violation for the whole-program `daemon-accounting` rule:
// the re-arm of a periodic handler sits two helper calls below the
// handler. The rule follows the project call graph, so the buried
// re-arm is found. Exactly one finding, on the schedule call in
// stepTwo(); the initial arm in start() is not reachable from the
// handler and is not a re-arm.

namespace fixture
{

class DeepEventQueue
{
  public:
    unsigned long long now() const;
    void schedule(unsigned long long when, void (*fn)(void *),
                  void *arg);
};

class DeepSampler
{
  public:
    void start();

  private:
    static void tickEvent(void *arg);
    void stepOne();
    void stepTwo();

    DeepEventQueue *eq_ = nullptr;
    unsigned long long interval_ = 500;
};

void
DeepSampler::start()
{
    eq_->schedule(eq_->now() + interval_, &DeepSampler::tickEvent,
                  this);
}

void
DeepSampler::tickEvent(void *arg)
{
    static_cast<DeepSampler *>(arg)->stepOne();
}

void
DeepSampler::stepOne()
{
    stepTwo();
}

void
DeepSampler::stepTwo()
{
    // finding: re-arm two levels under the handler.
    eq_->schedule(eq_->now() + interval_, &DeepSampler::tickEvent,
                  this);
}

} // namespace fixture
