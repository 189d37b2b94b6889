// Framed I/O over POSIX file descriptors — the transport between a campaign
// parent and its worker processes (campaign/transport.*,
// `lokimeasure --worker --serve`).
//
// A frame is a 4-byte little-endian payload length followed by the payload
// bytes. Reads and writes retry on EINTR and loop over partial transfers;
// a frame truncated by a dying peer surfaces as codec::DecodeError, a clean
// close between frames as std::nullopt. Reads block: there is no timeout at
// this layer, so a silent peer is judged by whoever owns it (the campaign
// coordinator kills a hung worker, which ends the stream).
#pragma once

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

/// Read one frame, blocking until it is whole. Returns std::nullopt on a
/// clean EOF before any byte of the frame; throws codec::DecodeError if the
/// stream ends mid-frame and std::runtime_error on I/O errors. The payload
/// buffer grows as bytes arrive, so a corrupt length prefix followed by EOF
/// never allocates the claimed length.
std::optional<std::vector<std::uint8_t>> read_frame(int fd);

}  // namespace loki::util
