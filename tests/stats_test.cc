/**
 * @file
 * Unit tests for the hierarchical stats registry (base/stats.hh):
 * registration/lookup, formula evaluation, histogram bucketing,
 * JSON export round-trip and number formatting, and EventQueue-driven
 * interval sampling with its column store (layout changes between
 * samples, duplicate keys, checkpoint layout).
 *
 * The JSON checks parse the emitted document with a minimal
 * recursive-descent parser so a malformed dump (stray comma, bad
 * escape, truncated object) fails loudly rather than "looks fine".
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "sim/event_queue.hh"

namespace minnow
{
namespace
{

//
// Minimal JSON parser (objects, arrays, strings, numbers, bools).
//

struct JsonValue
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    const JsonValue &
    at(const std::string &key) const
    {
        static const JsonValue missing;
        auto it = obj.find(key);
        return it == obj.end() ? missing : it->second;
    }

    bool has(const std::string &key) const { return obj.count(key); }
};

class JsonParser
{
  public:
    // Copies the text: callers hand in toJson() temporaries.
    explicit JsonParser(std::string text) : s_(std::move(text)) {}

    /** Parse the full document; sets ok() false on any error. */
    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != s_.size())
            ok_ = false;
        return v;
    }

    bool ok() const { return ok_; }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        skipWs();
        if (pos_ >= s_.size()) {
            ok_ = false;
            return {};
        }
        char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        return number();
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Obj;
        consume('{');
        if (consume('}'))
            return v;
        do {
            JsonValue key = string();
            if (!ok_ || !consume(':'))
                break;
            v.obj[key.str] = value();
        } while (ok_ && consume(','));
        if (!consume('}'))
            ok_ = false;
        return v;
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Arr;
        consume('[');
        if (consume(']'))
            return v;
        do {
            v.arr.push_back(value());
        } while (ok_ && consume(','));
        if (!consume(']'))
            ok_ = false;
        return v;
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::Str;
        if (!consume('"')) {
            ok_ = false;
            return v;
        }
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\' && pos_ < s_.size()) {
                char e = s_[pos_++];
                switch (e) {
                  case 'n': v.str += '\n'; break;
                  case 't': v.str += '\t'; break;
                  case '"': v.str += '"'; break;
                  case '\\': v.str += '\\'; break;
                  case 'u':
                    // Tests only need ASCII escapes.
                    if (pos_ + 4 <= s_.size()) {
                        v.str += char(std::stoul(
                            s_.substr(pos_, 4), nullptr, 16));
                        pos_ += 4;
                    } else {
                        ok_ = false;
                    }
                    break;
                  default: ok_ = false;
                }
            } else {
                v.str += c;
            }
        }
        if (!consume('"'))
            ok_ = false;
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.b = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            v.b = false;
            pos_ += 5;
        } else {
            ok_ = false;
        }
        return v;
    }

    JsonValue
    number()
    {
        JsonValue v;
        v.kind = JsonValue::Num;
        std::size_t end = pos_;
        while (end < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[end])) ||
                s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
                s_[end] == 'e' || s_[end] == 'E'))
            ++end;
        if (end == pos_) {
            ok_ = false;
            return v;
        }
        v.num = std::stod(s_.substr(pos_, end - pos_));
        pos_ = end;
        return v;
    }

    std::string s_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

//
// Registration and lookup.
//

TEST(StatsRegistry, RegisterAndFind)
{
    StatsRegistry reg;
    StatsGroup &g = reg.group("core0");
    CounterStat &c = g.counter("uops", "micro-ops committed");
    ScalarStat &s = g.scalar("freqGhz", "clock");
    s = 2.5;
    ++c;
    c += 9;

    ASSERT_NE(reg.find("core0"), nullptr);
    EXPECT_EQ(reg.find("nope"), nullptr);
    const Stat *uops = reg.find("core0")->find("uops");
    ASSERT_NE(uops, nullptr);
    EXPECT_EQ(uops->kind(), StatKind::Counter);
    EXPECT_DOUBLE_EQ(uops->value(), 10.0);
    EXPECT_DOUBLE_EQ(reg.find("core0")->find("freqGhz")->value(),
                     2.5);
    EXPECT_EQ(reg.find("core0")->find("nope"), nullptr);

    // group() is get-or-create; the same group comes back.
    EXPECT_EQ(&reg.group("core0"), &g);
}

TEST(StatsRegistry, FreshGroupReplacesAndRemoveDrops)
{
    StatsRegistry reg;
    reg.group("worklist").counter("pops");
    ASSERT_NE(reg.find("worklist")->find("pops"), nullptr);

    // freshGroup drops the old stats (machine reuse).
    StatsGroup &g2 = reg.freshGroup("worklist");
    EXPECT_EQ(g2.find("pops"), nullptr);
    g2.counter("pops");

    reg.removeGroup("worklist");
    EXPECT_EQ(reg.find("worklist"), nullptr);

    // Groups come back name-sorted.
    reg.group("b");
    reg.group("a");
    auto gs = reg.groups();
    ASSERT_EQ(gs.size(), 2u);
    EXPECT_EQ(gs[0]->name(), "a");
    EXPECT_EQ(gs[1]->name(), "b");
}

//
// Formula evaluation.
//

TEST(StatsRegistry, FormulaTracksLiveCountersLazily)
{
    StatsRegistry reg;
    std::uint64_t misses = 0, uops = 0;
    FormulaStat &mpki = reg.group("l2_0").formula(
        "mpki", "misses per kilo-instruction", [&] {
            return uops ? double(misses) / (double(uops) / 1000.0)
                        : 0.0;
        });

    // 0/0 guarded by the formula itself.
    EXPECT_DOUBLE_EQ(mpki.value(), 0.0);

    misses = 50;
    uops = 10'000;
    EXPECT_DOUBLE_EQ(mpki.value(), 5.0);

    // Lazy: later counter updates show in the next evaluation.
    misses = 100;
    EXPECT_DOUBLE_EQ(mpki.value(), 10.0);
}

TEST(StatsRegistry, FormulaNonFiniteReadsAsZero)
{
    StatsRegistry reg;
    FormulaStat &f = reg.group("sim").formula(
        "bad", "division by zero", [] { return 1.0 / 0.0; });
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
}

//
// Histogram bucketing.
//

TEST(StatsRegistry, HistogramBucketsAndOverflow)
{
    StatsRegistry reg;
    HistogramStat &h = reg.group("worklist").histogram(
        "popLatency", "cycles", 10, 4);

    h.sample(0);   // bucket 0.
    h.sample(9);   // bucket 0.
    h.sample(10);  // bucket 1.
    h.sample(35);  // bucket 3.
    h.sample(39);  // bucket 3.
    h.sample(400); // overflow -> last bucket (3).

    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 3u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 9 + 10 + 35 + 39 + 400) / 6.0);
    // Histograms report their mean as the scalar value.
    EXPECT_DOUBLE_EQ(h.value(), h.mean());

    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucketCount(3), 0u);
}

TEST(StatsRegistry, HistogramDegenerateParamsClamp)
{
    StatsRegistry reg;
    // Zero width/bucket-count clamp to 1 instead of dividing by 0.
    HistogramStat &h =
        reg.group("g").histogram("h", "degenerate", 0, 0);
    h.sample(1234);
    EXPECT_EQ(h.bucketWidth(), 1u);
    EXPECT_EQ(h.numBuckets(), 1u);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

//
// Flatten.
//

TEST(StatsRegistry, FlattenUsesDottedKeys)
{
    StatsRegistry reg;
    StatsGroup &g = reg.group("minnow0");
    g.counter("creditStalls") += 7;
    HistogramStat &h = g.histogram("occ", "", 1, 4);
    h.sample(2);

    StatsReport rep;
    reg.flatten(rep);
    EXPECT_DOUBLE_EQ(rep.get("minnow0.creditStalls"), 7.0);
    EXPECT_DOUBLE_EQ(rep.get("minnow0.occ.mean"), 2.0);
    EXPECT_DOUBLE_EQ(rep.get("minnow0.occ.total"), 1.0);
}

//
// JSON round-trip.
//

TEST(StatsRegistry, JsonRoundTrip)
{
    StatsRegistry reg;
    StatsGroup &core = reg.group("core0");
    core.counter("uops") += 12345;
    core.scalar("ipc\"weird\nname") = 0.75; // escaping probe.
    std::uint64_t misses = 250, uops = 12345;
    reg.group("l2_0").formula("mpki", "", [&] {
        return double(misses) / (double(uops) / 1000.0);
    });
    HistogramStat &h =
        reg.group("worklist").histogram("popLatency", "", 16, 8);
    h.sample(5);
    h.sample(100);
    h.sample(10'000); // overflow bucket.

    JsonParser p(reg.toJson());
    JsonValue doc = p.parse();
    ASSERT_TRUE(p.ok()) << reg.toJson();

    EXPECT_EQ(doc.at("schema").str, "minnow-stats-2");
    const JsonValue &groups = doc.at("groups");
    ASSERT_EQ(groups.kind, JsonValue::Obj);
    ASSERT_TRUE(groups.has("core0"));
    ASSERT_TRUE(groups.has("l2_0"));
    ASSERT_TRUE(groups.has("worklist"));

    EXPECT_DOUBLE_EQ(groups.at("core0").at("uops").num, 12345.0);
    EXPECT_DOUBLE_EQ(
        groups.at("core0").at("ipc\"weird\nname").num, 0.75);
    EXPECT_NEAR(groups.at("l2_0").at("mpki").num,
                250.0 / 12.345, 1e-9);

    const JsonValue &hist = groups.at("worklist").at("popLatency");
    ASSERT_EQ(hist.kind, JsonValue::Obj);
    EXPECT_EQ(hist.at("type").str, "histogram");
    EXPECT_DOUBLE_EQ(hist.at("bucketWidth").num, 16.0);
    EXPECT_DOUBLE_EQ(hist.at("total").num, 3.0);
    ASSERT_EQ(hist.at("counts").arr.size(), 8u);
    EXPECT_DOUBLE_EQ(hist.at("counts").arr[0].num, 1.0); // 5.
    EXPECT_DOUBLE_EQ(hist.at("counts").arr[6].num, 1.0); // 100.
    EXPECT_DOUBLE_EQ(hist.at("counts").arr[7].num, 1.0); // overflow.
}

TEST(StatsRegistry, JsonIntegersHaveNoExponent)
{
    StatsRegistry reg;
    reg.group("sim").counter("big") += 123'456'789'012ull;
    std::string json = reg.toJson();
    EXPECT_NE(json.find("123456789012"), std::string::npos) << json;
    EXPECT_EQ(json.find("1.23456789012e"), std::string::npos);
}

//
// Interval sampling off the EventQueue.
//

void
nopEvent(void *)
{
}

/** EventQueue::every service recording one interval sample. */
bool
recordStatsSample(void *reg, Cycle now)
{
    static_cast<StatsRegistry *>(reg)->recordSample(now);
    return true;
}

TEST(StatsRegistry, SamplingRecordsIntervalsAndLetsQueueDrain)
{
    EventQueue eq;
    StatsRegistry reg;
    std::uint64_t work = 0;
    reg.group("sim").formula("work", "",
                             [&] { return double(work); });

    // Simulated activity at cycles 10..500.
    for (Cycle t = 10; t <= 500; t += 10)
        eq.schedule(t, nopEvent, &work);

    eq.every(100, recordStatsSample, &reg);
    work = 42;
    eq.run();

    // The queue drained: the sampler must not keep the sim alive.
    EXPECT_TRUE(eq.empty());
    ASSERT_GE(reg.samples().size(), 4u);
    EXPECT_EQ(reg.samples()[0].cycle(), 100u);
    EXPECT_EQ(reg.samples()[1].cycle(), 200u);
    const double *sampled = reg.samples()[0].find("sim.work");
    ASSERT_NE(sampled, nullptr);
    EXPECT_DOUBLE_EQ(*sampled, 42.0);
    EXPECT_EQ(reg.samples()[0].find("sim.nope"), nullptr);

    // Interval samples ride along in the JSON document.
    JsonParser p(reg.toJson());
    JsonValue doc = p.parse();
    ASSERT_TRUE(p.ok());
    const JsonValue &samples = doc.at("intervals").at("samples");
    ASSERT_EQ(samples.kind, JsonValue::Arr);
    ASSERT_GE(samples.arr.size(), 4u);
    EXPECT_DOUBLE_EQ(samples.arr[0].at("cycle").num, 100.0);
    EXPECT_DOUBLE_EQ(samples.arr[0].at("layout").num, 0.0);
    ASSERT_EQ(samples.arr[0].at("values").arr.size(), 1u);
    EXPECT_DOUBLE_EQ(samples.arr[0].at("values").arr[0].num, 42.0);
}

TEST(StatsRegistry, JsonNumberFormattingGolden)
{
    // Pins the exact bytes of every number branch: integers below
    // 9e15 print as %.0f, everything else as %.12g, non-finite as 0.
    // Histograms stay out of interval samples.
    EventQueue eq;
    StatsRegistry reg;
    StatsGroup &g = reg.group("n");
    g.scalar("atLimit") = 9.0e15;
    g.scalar("belowLimit") = 8999999999999998.0;
    g.scalar("huge") = 1e300;
    g.scalar("negZero") = -0.0;
    g.scalar("tenth") = 0.1;
    g.scalar("third") = 1.0 / 3.0;
    g.scalar("neg") = -1234.5678;
    g.scalar("tiny") = 2.5e-7;
    g.scalar("halfPastInt") = 1e15 + 0.5;
    g.scalar("nan") = std::numeric_limits<double>::quiet_NaN();
    g.scalar("inf") = std::numeric_limits<double>::infinity();
    g.scalar("negInf") = -std::numeric_limits<double>::infinity();
    g.counter("count") += 42;
    g.histogram("lat", "", 4, 2).sample(5);

    // One sample at cycle 10: the event at 10 was queued first.
    eq.schedule(10, nopEvent, nullptr);
    eq.every(10, recordStatsSample, &reg);
    eq.run();

    const std::string values =
        "\"atLimit\":9e+15,\"belowLimit\":8999999999999998,"
        "\"huge\":1e+300,\"negZero\":-0,\"tenth\":0.1,"
        "\"third\":0.333333333333,\"neg\":-1234.5678,"
        "\"tiny\":2.5e-07,\"halfPastInt\":1e+15,\"nan\":0,"
        "\"inf\":0,\"negInf\":0,\"count\":42";
    const std::string layout =
        "[\"n.atLimit\",\"n.belowLimit\",\"n.count\",\"n.halfPastInt\","
        "\"n.huge\",\"n.inf\",\"n.nan\",\"n.neg\",\"n.negInf\","
        "\"n.negZero\",\"n.tenth\",\"n.third\",\"n.tiny\"]";
    const std::string sampled =
        "[9e+15,8999999999999998,42,1e+15,1e+300,0,0,-1234.5678,0,"
        "-0,0.1,0.333333333333,2.5e-07]";
    EXPECT_EQ(reg.toJson(),
              "{\"schema\":\"minnow-stats-2\",\"groups\":{\"n\":{" +
                  values +
                  ",\"lat\":{\"type\":\"histogram\",\"bucketWidth\":4,"
                  "\"total\":1,\"mean\":5,\"counts\":[0,1]}}},"
                  "\"intervals\":{\"layouts\":[" +
                  layout +
                  "],\"samples\":[{\"cycle\":10,\"layout\":0,"
                  "\"values\":" +
                  sampled + "}]}}");
}

void
addLateGroup(void *arg)
{
    static_cast<StatsRegistry *>(arg)->group("late").counter("x") +=
        7;
}

void
dropLateGroup(void *arg)
{
    static_cast<StatsRegistry *>(arg)->removeGroup("late");
}

/**
 * Samples every 100 cycles up to the first multiple of 100 after
 * @p lastEvent; group "late" lives in [150, 250).
 */
void
sampleAcrossLateGroup(StatsRegistry &reg, Cycle lastEvent = 350)
{
    EventQueue eq;
    eq.schedule(150, addLateGroup, &reg);
    eq.schedule(250, dropLateGroup, &reg);
    eq.schedule(lastEvent, nopEvent, nullptr);
    eq.every(100, recordStatsSample, &reg);
    eq.run();
}

TEST(StatsRegistry, SampleKeysFollowGroupLifetime)
{
    StatsRegistry reg;
    reg.group("sim").counter("ticks") += 3;
    sampleAcrossLateGroup(reg);

    auto samples = reg.samples();
    ASSERT_EQ(samples.size(), 4u);
    const bool hadLate[] = {false, true, false, false};
    for (std::size_t i = 0; i < samples.size(); ++i) {
        auto s = samples[i];
        EXPECT_EQ(s.cycle(), 100u * (i + 1));
        EXPECT_EQ(s.find("late.x") != nullptr, hadLate[i])
            << "sample " << i;
        EXPECT_EQ(s.size(), hadLate[i] ? 2u : 1u);
        ASSERT_NE(s.find("sim.ticks"), nullptr);
        EXPECT_DOUBLE_EQ(*s.find("sim.ticks"), 3.0);
    }
    EXPECT_EQ(samples[1].key(0), "late.x");
    EXPECT_DOUBLE_EQ(samples[1].value(0), 7.0);

    // The first layout comes back after "late" is gone.
    std::string json = reg.toJson();
    EXPECT_NE(json.find("\"intervals\":{\"layouts\":[[\"sim.ticks\"],"
                        "[\"late.x\",\"sim.ticks\"]],\"samples\":["
                        "{\"cycle\":100,\"layout\":0,\"values\":[3]},"
                        "{\"cycle\":200,\"layout\":1,\"values\":[7,3]},"
                        "{\"cycle\":300,\"layout\":0,\"values\":[3]},"
                        "{\"cycle\":400,\"layout\":0,\"values\":[3]}]}"),
              std::string::npos)
        << json;

    // Samples of several layouts survive a checkpoint roundtrip.
    std::vector<std::uint8_t> buf;
    {
        ckpt::Ckpt ck = ckpt::Ckpt::saver(&buf);
        reg.checkpoint(ck);
        ASSERT_TRUE(ck.ok()) << ck.error();
    }
    StatsRegistry back;
    back.group("sim").counter("ticks");
    ckpt::Ckpt ck = ckpt::Ckpt::loader(buf.data(), buf.size());
    back.checkpoint(ck);
    ASSERT_TRUE(ck.ok()) << ck.error();
    EXPECT_EQ(back.toJson(), json);
}

TEST(StatsRegistry, TwoLayoutIntervalsGolden)
{
    // Three samples over two layouts: "late" joins after the first
    // and is gone before the third, which reuses layout 0.
    StatsRegistry reg;
    reg.group("sim").counter("ticks") += 3;
    sampleAcrossLateGroup(reg, 250);
    ASSERT_EQ(reg.samples().size(), 3u);
    EXPECT_EQ(reg.toJson(),
              "{\"schema\":\"minnow-stats-2\","
              "\"groups\":{\"sim\":{\"ticks\":3}},"
              "\"intervals\":{\"layouts\":[[\"sim.ticks\"],"
              "[\"late.x\",\"sim.ticks\"]],\"samples\":["
              "{\"cycle\":100,\"layout\":0,\"values\":[3]},"
              "{\"cycle\":200,\"layout\":1,\"values\":[7,3]},"
              "{\"cycle\":300,\"layout\":0,\"values\":[3]}]}}");
}

void
bumpTicks(void *arg)
{
    *static_cast<CounterStat *>(arg) += 11;
}

TEST(StatsRegistry, JsonSamplesExpandToSampleViews)
{
    // Re-expanding each JSON sample through its layout gives back
    // exactly what samples()[i] holds, key by key.
    StatsRegistry reg;
    CounterStat &ticks = reg.group("sim").counter("ticks");
    reg.group("sim").scalar("half") = 0.5;
    reg.group("core0").formula("twice", "", [&ticks] {
        return 2.0 * double(ticks.count());
    });
    EventQueue eq;
    for (Cycle t = 30; t <= 130; t += 20)
        eq.schedule(t, bumpTicks, &ticks);
    eq.schedule(70, addLateGroup, &reg);
    eq.schedule(110, dropLateGroup, &reg);
    eq.every(25, recordStatsSample, &reg);
    eq.run();

    JsonParser p(reg.toJson());
    JsonValue doc = p.parse();
    ASSERT_TRUE(p.ok());
    const JsonValue &layouts = doc.at("intervals").at("layouts");
    const JsonValue &samples = doc.at("intervals").at("samples");
    ASSERT_EQ(layouts.arr.size(), 2u);
    ASSERT_EQ(samples.arr.size(), reg.samples().size());
    ASSERT_EQ(samples.arr.size(), 6u);
    for (std::size_t i = 0; i < samples.arr.size(); ++i) {
        const JsonValue &js = samples.arr[i];
        auto view = reg.samples()[i];
        EXPECT_DOUBLE_EQ(js.at("cycle").num, double(view.cycle()));
        std::size_t l = std::size_t(js.at("layout").num);
        ASSERT_LT(l, layouts.arr.size());
        const JsonValue &keys = layouts.arr[l];
        const JsonValue &values = js.at("values");
        ASSERT_EQ(keys.arr.size(), view.size()) << "sample " << i;
        ASSERT_EQ(values.arr.size(), view.size()) << "sample " << i;
        for (std::size_t k = 0; k < view.size(); ++k) {
            EXPECT_EQ(keys.arr[k].str, view.key(k));
            EXPECT_DOUBLE_EQ(values.arr[k].num, view.value(k))
                << "sample " << i << " key " << view.key(k);
        }
    }
}

TEST(StatsRegistry, DuplicateSampleKeysKeepLastWins)
{
    // "a"+"b.c" and "a.b"+"c" flatten to the same key. Group "a"
    // evaluates first, so "a.b"'s value must win, as a map insert
    // would have it; both formulas still run once per sample.
    StatsRegistry reg;
    int evalA = 0, evalB = 0;
    reg.group("a").formula("b.c", "", [&evalA] {
        ++evalA;
        return 1.0;
    });
    reg.group("a").counter("z") += 5;
    reg.group("a.b").formula("c", "", [&evalB] {
        ++evalB;
        return 2.0;
    });
    EventQueue eq;
    eq.schedule(10, nopEvent, nullptr);
    eq.every(10, recordStatsSample, &reg);
    eq.run();
    ASSERT_EQ(reg.samples().size(), 1u);
    auto s = reg.samples()[0];
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.key(0), "a.b.c");
    EXPECT_EQ(s.key(1), "a.z");
    EXPECT_DOUBLE_EQ(s.value(0), 2.0);
    EXPECT_DOUBLE_EQ(s.value(1), 5.0);
    EXPECT_EQ(evalA, 1);
    EXPECT_EQ(evalB, 1);
}

TEST(StatsRegistry, CheckpointKeepsPerSampleKeyValueLayout)
{
    // Per sample: cycle, key count, then (key, value) pairs in key
    // order. Dropping the group afterwards leaves only the samples
    // in the registry's section, after a zero group count.
    StatsRegistry reg;
    reg.group("sim").counter("b") += 2;
    reg.group("sim").scalar("a") = 0.5;
    EventQueue eq;
    eq.schedule(30, nopEvent, nullptr);
    eq.every(20, recordStatsSample, &reg);
    eq.run();
    ASSERT_EQ(reg.samples().size(), 2u);
    reg.removeGroup("sim");

    std::vector<std::uint8_t> got;
    {
        ckpt::Ckpt ck = ckpt::Ckpt::saver(&got);
        reg.checkpoint(ck);
        ASSERT_TRUE(ck.ok()) << ck.error();
    }
    std::vector<std::uint8_t> want;
    {
        ckpt::Ckpt ck = ckpt::Ckpt::saver(&want);
        std::uint64_t groups = 0, samples = 2, width = 2;
        ck.io(groups);
        ck.io(samples);
        for (Cycle cycle : {Cycle(20), Cycle(40)}) {
            std::string ka = "sim.a", kb = "sim.b";
            double va = 0.5, vb = 2.0;
            ck.io(cycle);
            ck.io(width);
            ck.io(ka);
            ck.io(va);
            ck.io(kb);
            ck.io(vb);
        }
    }
    EXPECT_EQ(got, want);

    StatsRegistry back;
    ckpt::Ckpt ck = ckpt::Ckpt::loader(want.data(), want.size());
    back.checkpoint(ck);
    ASSERT_TRUE(ck.ok()) << ck.error();
    EXPECT_EQ(back.toJson(), reg.toJson());
}

TEST(StatsRegistry, WriteJsonFileRoundTrips)
{
    StatsRegistry reg;
    reg.group("sim").counter("cycles") += 77;

    std::string path =
        testing::TempDir() + "/minnow_stats_test.json";
    ASSERT_TRUE(reg.writeJsonFile(path));

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    JsonParser p(text);
    JsonValue doc = p.parse();
    ASSERT_TRUE(p.ok()) << text;
    EXPECT_DOUBLE_EQ(
        doc.at("groups").at("sim").at("cycles").num, 77.0);
}

} // anonymous namespace
} // namespace minnow
