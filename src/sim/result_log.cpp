#include "sim/result_log.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>

namespace dxbar {

namespace {

constexpr std::uint32_t kFrameTag = section_tag("RLOG");
constexpr std::size_t kFrameHeader = 4 + 8;    // tag + length
constexpr std::size_t kPayloadHeader = 8 + 4;  // fingerprint + point
constexpr std::size_t kFrameTrailer = 8;       // FNV-1a of the payload

void append_le32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_le64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t le32_at(const std::vector<std::uint8_t>& b, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(b[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

std::uint64_t le64_at(const std::vector<std::uint8_t>& b, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

}  // namespace

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

ResultLog::ResultLog(std::string path, std::uint64_t fingerprint,
                     std::size_t points)
    : path_(std::move(path)), fingerprint_(fingerprint), records_(points) {
  const std::vector<std::uint8_t> bytes = read_file(path_);
  std::size_t pos = 0;
  while (bytes.size() - pos >= kFrameHeader) {
    if (le32_at(bytes, pos) != kFrameTag) break;
    const std::uint64_t len = le64_at(bytes, pos + 4);
    const std::size_t body = bytes.size() - pos - kFrameHeader;
    if (len < kPayloadHeader || len > body || body - len < kFrameTrailer) {
      break;
    }
    const std::size_t payload = pos + kFrameHeader;
    if (fnv1a(bytes.data() + payload, len) != le64_at(bytes, payload + len)) {
      break;
    }
    const std::uint32_t point = le32_at(bytes, payload + 8);
    if (le64_at(bytes, payload) == fingerprint_ && point < records_.size()) {
      records_[point].emplace(
          bytes.begin() + static_cast<std::ptrdiff_t>(payload + kPayloadHeader),
          bytes.begin() + static_cast<std::ptrdiff_t>(payload + len));
    }
    pos = payload + len + kFrameTrailer;
  }
  // Drop the unreadable tail now: an append after it would never be
  // read back.
  if (pos < bytes.size()) std::filesystem::resize_file(path_, pos);
}

std::size_t ResultLog::completed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.has_value()) ++n;
  }
  return n;
}

void ResultLog::append(std::size_t point,
                       std::span<const std::uint8_t> record) {
  const std::size_t len = kPayloadHeader + record.size();
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeader + len + kFrameTrailer);
  append_le32(frame, kFrameTag);
  append_le64(frame, len);
  append_le64(frame, fingerprint_);
  append_le32(frame, static_cast<std::uint32_t>(point));
  frame.insert(frame.end(), record.begin(), record.end());
  append_le64(frame, fnv1a(frame.data() + kFrameHeader, len));

  const std::lock_guard<std::mutex> lock(mu_);
  records_.at(point).emplace(record.begin(), record.end());
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  out.flush();
}

}  // namespace dxbar
