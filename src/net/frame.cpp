#include "net/frame.hpp"

#include <cstring>

#include "core/serial.hpp"

namespace dvbp::net {

namespace {

/// Body sanity bound: one arrive carries one RVec (journal uses the same
/// cap for the same reason).
constexpr std::uint32_t kMaxDim = 1024;

bool valid_type(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(MsgType::kArrive) &&
         t <= static_cast<std::uint8_t>(MsgType::kPing);
}

}  // namespace

std::string_view status_name(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRetryLater: return "retry-later";
    case Status::kBadRequest: return "bad-request";
    case Status::kUnknownJob: return "unknown-job";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kNotQuiescent: return "not-quiescent";
    case Status::kInternalError: return "internal-error";
  }
  return "unknown";
}

void encode_request(const Request& req, std::vector<std::uint8_t>& out) {
  serial::Writer payload;
  payload.u64(req.id);
  payload.u8(static_cast<std::uint8_t>(req.type));
  switch (req.type) {
    case MsgType::kArrive:
      payload.f64(req.time);
      payload.f64(req.expected_departure);
      payload.u32(static_cast<std::uint32_t>(req.size.dim()));
      for (double c : req.size) payload.f64(c);
      // Optional trailing tenant label (see header comment).
      if (req.tenant != kNoTenant) payload.u32(req.tenant);
      break;
    case MsgType::kDepart:
      payload.f64(req.time);
      payload.u64(req.job);
      break;
    case MsgType::kQuery:
      payload.f64(req.time);
      break;
    case MsgType::kSnapshot:
    case MsgType::kDrain:
    case MsgType::kPing:
      break;
  }
  serial::append_frame(payload.bytes(), out);
}

void encode_response(const Response& resp, std::vector<std::uint8_t>& out) {
  serial::Writer payload;
  payload.u64(resp.id);
  payload.u8(static_cast<std::uint8_t>(resp.type));
  payload.u8(static_cast<std::uint8_t>(resp.status));
  if (resp.status == Status::kOk) {
    switch (resp.type) {
      case MsgType::kArrive:
        payload.u64(resp.job);
        break;
      case MsgType::kDepart:
      case MsgType::kPing:
        break;
      case MsgType::kQuery:
        payload.f64(resp.cost);
        payload.u64(resp.open_bins);
        payload.u64(resp.jobs_active);
        payload.u64(resp.jobs_admitted);
        break;
      case MsgType::kSnapshot:
      case MsgType::kDrain:
        payload.u64(resp.packing_hash);
        payload.u64(resp.num_bins);
        payload.f64(resp.cost);
        break;
    }
  }
  serial::append_frame(payload.bytes(), out);
}

Request decode_request(const std::uint8_t* payload, std::size_t len) {
  try {
    serial::Reader in(payload, len);
    Request req;
    req.id = in.u64();
    const std::uint8_t type = in.u8();
    if (!valid_type(type)) {
      throw FrameError("request: unknown message type " +
                       std::to_string(type));
    }
    req.type = static_cast<MsgType>(type);
    switch (req.type) {
      case MsgType::kArrive: {
        req.time = in.f64();
        req.expected_departure = in.f64();
        const std::uint32_t dim = in.u32();
        if (dim == 0 || dim > kMaxDim) {
          throw FrameError("request: implausible dimension " +
                           std::to_string(dim));
        }
        RVec size(dim);
        for (std::uint32_t j = 0; j < dim; ++j) size[j] = in.f64();
        req.size = std::move(size);
        if (!in.done()) req.tenant = in.u32();
        break;
      }
      case MsgType::kDepart:
        req.time = in.f64();
        req.job = in.u64();
        break;
      case MsgType::kQuery:
        req.time = in.f64();
        break;
      case MsgType::kSnapshot:
      case MsgType::kDrain:
      case MsgType::kPing:
        break;
    }
    if (!in.done()) {
      throw FrameError("request: trailing bytes after body");
    }
    return req;
  } catch (const serial::SerialError& e) {
    throw FrameError(std::string("request: ") + e.what());
  }
}

Response decode_response(const std::uint8_t* payload, std::size_t len) {
  try {
    serial::Reader in(payload, len);
    Response resp;
    resp.id = in.u64();
    const std::uint8_t type = in.u8();
    if (!valid_type(type)) {
      throw FrameError("response: unknown message type " +
                       std::to_string(type));
    }
    resp.type = static_cast<MsgType>(type);
    const std::uint8_t status = in.u8();
    if (status > static_cast<std::uint8_t>(Status::kInternalError)) {
      throw FrameError("response: unknown status " + std::to_string(status));
    }
    resp.status = static_cast<Status>(status);
    if (resp.status == Status::kOk) {
      switch (resp.type) {
        case MsgType::kArrive:
          resp.job = in.u64();
          break;
        case MsgType::kDepart:
        case MsgType::kPing:
          break;
        case MsgType::kQuery:
          resp.cost = in.f64();
          resp.open_bins = in.u64();
          resp.jobs_active = in.u64();
          resp.jobs_admitted = in.u64();
          break;
        case MsgType::kSnapshot:
        case MsgType::kDrain:
          resp.packing_hash = in.u64();
          resp.num_bins = in.u64();
          resp.cost = in.f64();
          break;
      }
    }
    if (!in.done()) {
      throw FrameError("response: trailing bytes after body");
    }
    return resp;
  } catch (const serial::SerialError& e) {
    throw FrameError(std::string("response: ") + e.what());
  }
}

void FrameDecoder::check_header() const {
  serial::Reader header(buf_.data() + pos_, kFrameHeaderBytes);
  const std::uint32_t len = header.u32();
  if (len > kMaxPayloadBytes) {
    throw FrameError("frame: implausible payload length " +
                     std::to_string(len));
  }
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t len) {
  // Compact before growing: drop the consumed prefix once it dominates the
  // buffer so a long-lived connection's memory stays O(partial frame).
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
  // Reject an implausible length as soon as the header is complete: no
  // point buffering towards a 4 GiB "frame" that can never be valid.
  if (buffered() >= kFrameHeaderBytes) check_header();
}

std::optional<std::vector<std::uint8_t>> FrameDecoder::next() {
  if (buffered() < kFrameHeaderBytes) return std::nullopt;
  check_header();
  serial::Reader header(buf_.data() + pos_, kFrameHeaderBytes);
  const std::uint32_t len = header.u32();
  const std::uint32_t crc = header.u32();
  if (buffered() - kFrameHeaderBytes < len) return std::nullopt;
  const std::uint8_t* payload = buf_.data() + pos_ + kFrameHeaderBytes;
  if (serial::crc32(payload, len) != crc) {
    throw FrameError("frame: CRC mismatch");
  }
  std::vector<std::uint8_t> out(payload, payload + len);
  pos_ += kFrameHeaderBytes + len;
  return out;
}

}  // namespace dvbp::net
