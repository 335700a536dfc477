#include "base/stats.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "base/logging.hh"

namespace minnow
{

void
StatsReport::dump(std::FILE *out) const
{
    for (const auto &[key, value] : values_)
        std::fprintf(out, "%-48s %.6g\n", key.c_str(), value);
}

double
FormulaStat::value() const
{
    double v = fn_ ? fn_() : 0.0;
    return std::isfinite(v) ? v : 0.0;
}

//
// StatsGroup
//

Stat &
StatsGroup::adopt(std::unique_ptr<Stat> s)
{
    fatal_if(index_.count(s->name()),
             "duplicate stat '%s' in group '%s'", s->name().c_str(),
             name_.c_str());
    Stat &ref = *s;
    index_[s->name()] = s.get();
    stats_.push_back(std::move(s));
    ++*layout_;
    return ref;
}

ScalarStat &
StatsGroup::scalar(const std::string &name, const std::string &desc)
{
    return static_cast<ScalarStat &>(
        adopt(std::make_unique<ScalarStat>(name, desc)));
}

CounterStat &
StatsGroup::counter(const std::string &name, const std::string &desc)
{
    return static_cast<CounterStat &>(
        adopt(std::make_unique<CounterStat>(name, desc)));
}

FormulaStat &
StatsGroup::formula(const std::string &name, const std::string &desc,
                    FormulaStat::Fn fn)
{
    return static_cast<FormulaStat &>(adopt(
        std::make_unique<FormulaStat>(name, desc, std::move(fn))));
}

HistogramStat &
StatsGroup::histogram(const std::string &name, const std::string &desc,
                      std::uint64_t bucketWidth, std::uint32_t buckets)
{
    return static_cast<HistogramStat &>(
        adopt(std::make_unique<HistogramStat>(name, desc, bucketWidth,
                                              buckets)));
}

const Stat *
StatsGroup::find(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : it->second;
}

void
StatsGroup::checkpoint(ckpt::Ckpt &ck)
{
    // name_ and index_ are identity, recreated at registration time;
    // only values travel, guarded by per-stat names. layout_ points
    // at the owning registry's host-side layout counter.
    ck.transient("name_ index_ layout_");
    std::uint64_t n = stats_.size();
    ck.io(n);
    if (ck.loading() && n != stats_.size()) {
        ck.fail("stats group '" + name_ + "' has " +
                std::to_string(stats_.size()) +
                " stats but the checkpoint holds " + std::to_string(n));
        return;
    }
    for (auto &s : stats_) {
        std::string statName = s->name();
        ck.io(statName);
        if (ck.loading() && statName != s->name()) {
            ck.fail("stats group '" + name_ + "': expected stat '" +
                    s->name() + "' but the checkpoint holds '" +
                    statName + "'");
            return;
        }
        s->checkpoint(ck);
        if (!ck.ok())
            return;
    }
}

//
// StatsRegistry
//

StatsGroup &
StatsRegistry::group(const std::string &name)
{
    auto it = groups_.find(name);
    if (it == groups_.end()) {
        it = groups_
                 .emplace(name, std::make_unique<StatsGroup>(
                                    name, &layoutVersion_))
                 .first;
        ++layoutVersion_;
    }
    return *it->second;
}

StatsGroup &
StatsRegistry::freshGroup(const std::string &name)
{
    removeGroup(name);
    return group(name);
}

const StatsGroup *
StatsRegistry::find(const std::string &name) const
{
    auto it = groups_.find(name);
    return it == groups_.end() ? nullptr : it->second.get();
}

void
StatsRegistry::removeGroup(const std::string &name)
{
    if (groups_.erase(name))
        ++layoutVersion_;
}

std::vector<const StatsGroup *>
StatsRegistry::groups() const
{
    std::vector<const StatsGroup *> out;
    out.reserve(groups_.size());
    for (const auto &[name, g] : groups_)
        out.push_back(g.get());
    return out;
}

void
StatsRegistry::flatten(StatsReport &out) const
{
    for (const auto &[gname, g] : groups_) {
        for (const auto &s : g->stats()) {
            std::string key = gname + "." + s->name();
            if (s->kind() == StatKind::Histogram) {
                const auto &h =
                    static_cast<const HistogramStat &>(*s);
                out.add(key + ".mean", h.mean());
                out.add(key + ".total", double(h.total()));
            } else {
                out.add(key, s->value());
            }
        }
    }
}

void
StatsRegistry::dumpText(std::FILE *out) const
{
    StatsReport flat;
    flatten(flat);
    flat.dump(out);
}

namespace
{

void
jsonEscape(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/** Longest number jsonNumber() emits ("-1.23456789012e-308"). */
constexpr std::size_t kMaxNumberChars = 24;

void
jsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += '0';
        return;
    }
    // Counters dominate; print integers without an exponent so JSON
    // consumers can diff them exactly. The bytes are printf's %.0f
    // for integers below 9e15 and %.12g otherwise (C locale): such an
    // integer is exact in an int64, whose digits are %.0f's save for
    // the sign of -0, and std::to_chars with a precision is specified
    // as the printf conversion. Zeros (idle cores' counters, most
    // of a sample) skip the conversion.
    if (v == 0) {
        out += std::signbit(v) ? "-0" : "0";
        return;
    }
    char buf[kMaxNumberChars];
    std::to_chars_result r;
    if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
        r = std::to_chars(buf, buf + sizeof buf, std::int64_t(v));
    } else {
        r = std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, 12);
    }
    out.append(buf, r.ptr);
}

void
jsonKey(std::string &out, const std::string &key)
{
    out += '"';
    jsonEscape(out, key);
    out += "\":";
}

void
appendStatJson(std::string &out, const Stat &s)
{
    jsonKey(out, s.name());
    if (s.kind() == StatKind::Histogram) {
        const auto &h = static_cast<const HistogramStat &>(s);
        out += "{\"type\":\"histogram\",\"bucketWidth\":";
        jsonNumber(out, double(h.bucketWidth()));
        out += ",\"total\":";
        jsonNumber(out, double(h.total()));
        out += ",\"mean\":";
        jsonNumber(out, h.mean());
        out += ",\"counts\":[";
        for (std::uint32_t i = 0; i < h.numBuckets(); ++i) {
            if (i)
                out += ',';
            jsonNumber(out, double(h.bucketCount(i)));
        }
        out += "]}";
    } else {
        jsonNumber(out, s.value());
    }
}

} // anonymous namespace

std::string
StatsRegistry::toJson() const
{
    std::string out;
    out.reserve(4096);
    out += "{\"schema\":\"minnow-stats-2\",\"groups\":{";
    bool firstGroup = true;
    for (const auto &[gname, g] : groups_) {
        if (!firstGroup)
            out += ',';
        firstGroup = false;
        jsonKey(out, gname);
        out += '{';
        bool firstStat = true;
        for (const auto &s : g->stats()) {
            if (!firstStat)
                out += ',';
            firstStat = false;
            appendStatJson(out, *s);
        }
        out += '}';
    }
    out += '}';
    if (!sampleRows_.empty()) {
        // Each layout's keys once, then per sample its layout index
        // and its values in that layout's key order.
        out += ",\"intervals\":{\"layouts\":[";
        for (std::size_t l = 0; l < schemas_.size(); ++l) {
            out += l ? ",[" : "[";
            for (std::size_t i = 0; i < schemas_[l].size(); ++i) {
                out += i ? ",\"" : "\"";
                jsonEscape(out, schemas_[l][i]);
                out += '"';
            }
            out += ']';
        }
        out += "],\"samples\":[";
        // The samples dominate the document: size it once. No number
        // is longer than kMaxNumberChars; the rest of a sample is 33
        // bytes of keys and brackets.
        std::size_t bound = out.size() + 3;
        for (const SampleRow &row : sampleRows_) {
            bound += 33 + 2 * kMaxNumberChars +
                     schemas_[row.schema].size() * (kMaxNumberChars + 1);
        }
        out.reserve(bound);
        for (std::size_t r = 0; r < sampleRows_.size(); ++r) {
            const SampleRow &row = sampleRows_[r];
            const double *vals = sampleValues_.data() + row.offset;
            out += r ? ",{\"cycle\":" : "{\"cycle\":";
            jsonNumber(out, double(row.cycle));
            out += ",\"layout\":";
            jsonNumber(out, double(row.schema));
            out += ",\"values\":[";
            for (std::size_t i = 0; i < schemas_[row.schema].size();
                 ++i) {
                if (i)
                    out += ',';
                jsonNumber(out, vals[i]);
            }
            out += "]}";
        }
        out += "]}";
    }
    out += '}';
    return out;
}

bool
StatsRegistry::writeJsonFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string json = toJson();
    bool ok = std::fwrite(json.data(), 1, json.size(), f) ==
              json.size();
    ok = std::fputc('\n', f) != EOF && ok;
    return std::fclose(f) == 0 && ok;
}

void
StatsRegistry::checkpoint(ckpt::Ckpt &ck)
{
    // The layout counter and evaluation plan are caches over
    // groups_, rebuilt at the next sample.
    ck.transient("layoutVersion_ planVersion_ planSchema_ plan_");
    std::uint64_t n = 0;
    for (const auto &[gname, g] : groups_) {
        (void)g;
        if (gname != "hostprof")
            ++n;
    }
    std::uint64_t local = n;
    ck.io(n);
    if (ck.loading() && n != local) {
        ck.fail("checkpoint holds " + std::to_string(n) +
                " stats groups but the registry has " +
                std::to_string(local));
        return;
    }
    for (auto &[gname, g] : groups_) {
        if (gname == "hostprof")
            continue;
        std::string name = gname;
        ck.io(name);
        if (ck.loading() && name != gname) {
            ck.fail("expected stats group '" + gname +
                    "' but the checkpoint holds '" + name + "'");
            return;
        }
        g->checkpoint(ck);
        if (!ck.ok())
            return;
    }
    // Per sample: cycle, key count, then (key, value) pairs in key
    // order. Checkpoints written before samples were stored by column
    // use the same layout, so they still load.
    std::uint64_t ns = sampleRows_.size();
    ck.io(ns);
    if (ck.saving()) {
        for (SampleRow &row : sampleRows_) {
            std::vector<std::string> &keys = schemas_[row.schema];
            ck.io(row.cycle);
            std::uint64_t nv = keys.size();
            ck.io(nv);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                ck.io(keys[i]);
                ck.io(sampleValues_[row.offset + i]);
            }
        }
        return;
    }
    schemas_.clear();
    sampleRows_.clear();
    sampleValues_.clear();
    planVersion_ = kNoPlan;
    std::vector<std::string> keys; // reused: steady state interns
    for (std::uint64_t r = 0; r < ns && ck.ok(); ++r) {
        SampleRow row{0, 0, sampleValues_.size()};
        ck.io(row.cycle);
        std::uint64_t nv = 0;
        ck.io(nv);
        std::size_t n = 0;
        for (; n < nv && ck.ok(); ++n) {
            if (n == keys.size())
                keys.emplace_back();
            ck.io(keys[n]);
            if (n && !(keys[n - 1] < keys[n]))
                ck.fail("interval sample keys out of order at '" +
                        keys[n] + "'");
            double v = 0;
            ck.io(v);
            sampleValues_.push_back(v);
        }
        if (!ck.ok())
            return;
        row.schema = internSchema(keys.data(), n);
        sampleRows_.push_back(row);
    }
}

std::uint32_t
StatsRegistry::internSchema(const std::string *keys, std::size_t n)
{
    // Latest first: consecutive samples almost always share one.
    for (std::size_t s = schemas_.size(); s-- > 0;) {
        if (std::equal(schemas_[s].begin(), schemas_[s].end(), keys,
                       keys + n)) {
            return std::uint32_t(s);
        }
    }
    schemas_.emplace_back(keys, keys + n);
    return std::uint32_t(schemas_.size() - 1);
}

void
StatsRegistry::rebuildPlan()
{
    plan_.clear();
    // Key -> the last step producing it: that step owns the slot, the
    // overwrite a map insert would do.
    std::map<std::string, std::uint32_t> owner;
    for (const auto &[gname, g] : groups_) {
        for (const auto &s : g->stats()) {
            if (s->kind() == StatKind::Histogram)
                continue;
            owner[gname + "." + s->name()] = std::uint32_t(plan_.size());
            plan_.push_back({s.get(), kNoSlot});
        }
    }

    std::vector<std::string> keys;
    keys.reserve(owner.size());
    for (auto &[key, step] : owner) {
        plan_[step].slot = std::uint32_t(keys.size());
        keys.push_back(key);
    }
    planSchema_ = internSchema(keys.data(), keys.size());
    planVersion_ = layoutVersion_;
}

void
StatsRegistry::recordSample(Cycle now)
{
    if (planVersion_ != layoutVersion_)
        rebuildPlan();
    const std::size_t offset = sampleValues_.size();
    sampleValues_.resize(offset + schemas_[planSchema_].size());
    double *row = sampleValues_.data() + offset;
    for (const PlanStep &step : plan_) {
        double v = step.stat->value();
        if (step.slot != kNoSlot)
            row[step.slot] = v;
    }
    sampleRows_.push_back({now, planSchema_, offset});
}

StatsRegistry::SampleView
StatsRegistry::sampleAt(std::size_t i) const
{
    const SampleRow &row = sampleRows_[i];
    return SampleView(row.cycle, schemas_[row.schema],
                      sampleValues_.data() + row.offset);
}

const double *
StatsRegistry::SampleView::find(const std::string &key) const
{
    auto it = std::lower_bound(keys_->begin(), keys_->end(), key);
    if (it == keys_->end() || *it != key)
        return nullptr;
    return values_ + (it - keys_->begin());
}

} // namespace minnow
