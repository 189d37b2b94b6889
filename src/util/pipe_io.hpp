// Framed I/O over POSIX file descriptors — the transport between a campaign
// parent and its worker processes (campaign/transport.*,
// `lokimeasure --worker --serve`).
//
// A frame is a 4-byte little-endian payload length followed by the payload
// bytes. Reads and writes retry on EINTR and loop over partial transfers;
// a frame truncated by a dying peer surfaces as codec::DecodeError, a clean
// close between frames as std::nullopt.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

namespace loki::util {

/// Upper bound on a single frame (1 GiB). A length prefix beyond this is
/// treated as stream corruption rather than an allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// Write all of `data`, retrying partial writes. Throws std::runtime_error
/// on I/O errors (including EPIPE when the reader is gone).
void write_exact(int fd, const void* data, std::size_t len);

/// Write one length-prefixed frame.
void write_frame(int fd, const std::vector<std::uint8_t>& payload);

/// Read one frame. Returns std::nullopt on a clean EOF before any byte of
/// the frame; throws codec::DecodeError if the stream ends mid-frame and
/// std::runtime_error on I/O errors.
std::optional<std::vector<std::uint8_t>> read_frame(int fd);

/// Wait until `fd` is readable (data or EOF/hangup). Returns false on
/// timeout. Retries EINTR against a fixed deadline so a signal storm cannot
/// extend the wait. Throws std::runtime_error on poll errors. The liveness
/// probe behind hung-worker detection: a worker that stops producing frames
/// turns into a timeout here, not a blocked read.
bool wait_readable(int fd, std::chrono::milliseconds timeout);

/// read_frame with stall detection *inside* the frame: every read is
/// preceded by a readability wait, so a peer that freezes after writing
/// only part of a frame (partial header, partial payload) surfaces as
/// codec::DecodeError once no byte has arrived for `stall_timeout` —
/// instead of blocking forever. The deadline slides on progress, so a big
/// frame that keeps trickling is never misdiagnosed. Same contract
/// otherwise: std::nullopt on clean EOF before the frame, DecodeError on
/// truncation/corruption, std::runtime_error on I/O errors. The
/// hung-worker path of campaign::RemoteRunner depends on this: plain
/// read_frame only times out at frame boundaries.
std::optional<std::vector<std::uint8_t>> read_frame_deadline(
    int fd, std::chrono::milliseconds stall_timeout);

}  // namespace loki::util
