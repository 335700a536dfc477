#include "sim/checkpoint.hh"

#include <array>
#include <cstdio>
#include <cstring>

namespace minnow::ckpt
{

namespace
{

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

/** Bounds-checked little-endian reads over the validated buffer. */
struct Cursor
{
    const std::uint8_t *p;
    std::size_t len;
    std::size_t pos = 0;

    bool
    need(std::size_t n) const
    {
        return pos + n <= len;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(p[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(p[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }
};

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    static const std::array<std::uint32_t, 256> table =
        makeCrcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
Writer::add(const std::string &name,
            std::vector<std::uint8_t> bytes)
{
    Section s;
    s.name = name;
    s.crc = crc32(bytes.data(), bytes.size());
    s.bytes = std::move(bytes);
    sections_.push_back(std::move(s));
}

std::vector<std::uint8_t>
Writer::encode() const
{
    std::vector<std::uint8_t> out(kMagic, kMagic + kMagicLen);
    putU32(out, std::uint32_t(sections_.size()));
    for (const Section &s : sections_) {
        putU32(out, std::uint32_t(s.name.size()));
        out.insert(out.end(), s.name.begin(), s.name.end());
        putU64(out, s.bytes.size());
        out.insert(out.end(), s.bytes.begin(), s.bytes.end());
        putU32(out, s.crc);
    }
    putU32(out, crc32(out.data(), out.size()));
    return out;
}

std::string
Writer::writeFile(const std::string &path) const
{
    std::vector<std::uint8_t> buf = encode();
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return "cannot open " + tmp + " for writing";
    std::size_t n = buf.empty()
        ? 0
        : std::fwrite(buf.data(), 1, buf.size(), f);
    bool writeOk = n == buf.size();
    bool closeOk = std::fclose(f) == 0;
    if (!writeOk || !closeOk) {
        std::remove(tmp.c_str());
        return "short write to " + tmp;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return "cannot rename " + tmp + " to " + path;
    }
    return "";
}

std::string
Reader::openFile(const std::string &path)
{
    sections_.clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "cannot open checkpoint " + path;
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (sz < 0) {
        std::fclose(f);
        return "cannot size checkpoint " + path;
    }
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(sz));
    std::size_t n = buf.empty()
        ? 0
        : std::fread(buf.data(), 1, buf.size(), f);
    std::fclose(f);
    if (n != buf.size())
        return "short read of checkpoint " + path;
    std::string err = decode(buf);
    if (!err.empty())
        return path + ": " + err;
    return "";
}

std::string
Reader::decode(const std::vector<std::uint8_t> &buf)
{
    sections_.clear();

    // Magic/version first: a different version must say so rather
    // than fail an opaque CRC check.
    if (buf.size() < kMagicLen + 8)
        return "truncated: " + std::to_string(buf.size()) +
               " bytes is smaller than any valid checkpoint";
    if (std::memcmp(buf.data(), kMagic, kMagicLen) != 0) {
        std::string got(reinterpret_cast<const char *>(buf.data()),
                        kMagicLen);
        for (char &c : got) {
            if (c < 0x20 || c > 0x7E)
                c = '?';
        }
        return "bad magic/version '" + got + "' (want '" +
               std::string(kMagic, kMagicLen - 1) + "')";
    }

    // Whole-file CRC before trusting any length field, so corrupted
    // section tables cannot steer reads out of bounds.
    Cursor c{buf.data(), buf.size() - 4};
    std::uint32_t want = 0;
    for (int i = 0; i < 4; ++i) {
        want |= std::uint32_t(buf[buf.size() - 4 + std::size_t(i)])
                << (8 * i);
    }
    std::uint32_t got = crc32(buf.data(), buf.size() - 4);
    if (got != want)
        return "file CRC mismatch (stored " + std::to_string(want) +
               ", computed " + std::to_string(got) + ")";

    c.pos = kMagicLen;
    if (!c.need(4))
        return "truncated before section count";
    std::uint32_t count = c.u32();
    std::vector<Section> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        if (!c.need(4))
            return "truncated in section " + std::to_string(i) +
                   " header";
        std::uint32_t nameLen = c.u32();
        if (!c.need(nameLen))
            return "truncated in section " + std::to_string(i) +
                   " name";
        std::string name(
            reinterpret_cast<const char *>(c.p + c.pos), nameLen);
        c.pos += nameLen;
        if (!c.need(8))
            return "truncated in section '" + name + "' length";
        std::uint64_t payLen = c.u64();
        if (payLen > c.len - c.pos)
            return "section '" + name + "' length " +
                   std::to_string(payLen) + " overruns the file";
        Section s;
        s.name = name;
        s.bytes.assign(c.p + c.pos, c.p + c.pos + payLen);
        c.pos += std::size_t(payLen);
        if (!c.need(4))
            return "truncated in section '" + name + "' CRC";
        s.crc = c.u32();
        std::uint32_t payCrc =
            crc32(s.bytes.data(), s.bytes.size());
        if (payCrc != s.crc)
            return "section '" + name + "' CRC mismatch (stored " +
                   std::to_string(s.crc) + ", computed " +
                   std::to_string(payCrc) + ")";
        out.push_back(std::move(s));
    }
    if (c.pos != c.len)
        return std::to_string(c.len - c.pos) +
               " trailing bytes after the last section";
    sections_ = std::move(out);
    return "";
}

const Section *
Reader::find(const std::string &name) const
{
    for (const Section &s : sections_) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

} // namespace minnow::ckpt
