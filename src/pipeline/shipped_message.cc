#include "pipeline/shipped_message.h"

#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"

namespace opdelta::pipeline {

namespace {

constexpr char kFrameTag = 'F';
constexpr uint8_t kFrameVersion = 1;
// Feature bits reserved for additive frame extensions. None are defined
// yet, so any set bit comes from a newer writer this build cannot decode.
constexpr uint32_t kKnownFeatureBits = 0;
constexpr char kLiveKind = 'B';
constexpr char kSnapshotKind = 'C';
constexpr char kValueDeltaTag = 'V';
constexpr char kOpDeltaTag = 'O';

// Writes everything up to and including the payload tag, leaving a zero
// CRC at *crc_pos for FinishFrame to fill in once the payload is appended.
void StartFrame(const extract::BatchId& id, char payload_tag,
                std::string* out, size_t* crc_pos) {
  out->clear();
  out->push_back(kFrameTag);
  out->push_back(static_cast<char>(kFrameVersion));
  PutFixed32(out, kKnownFeatureBits);
  out->push_back(id.snapshot ? kSnapshotKind : kLiveKind);
  PutLengthPrefixed(out, Slice(id.source_id));
  PutFixed64(out, id.epoch);
  PutFixed64(out, id.seq);
  PutFixed64(out, id.schema_epoch);
  *crc_pos = out->size();
  PutFixed32(out, 0);
  out->push_back(payload_tag);
}

void FinishFrame(size_t crc_pos, std::string* out) {
  const size_t payload_pos = crc_pos + 4;
  const uint32_t crc =
      Crc32c(out->data() + payload_pos, out->size() - payload_pos);
  std::memcpy(out->data() + crc_pos, &crc, 4);
}

// Consumes the frame header through the CRC field.
Status DecodeHeader(Slice* input, extract::BatchId* id, uint32_t* crc) {
  *id = extract::BatchId();
  if (input->empty() || (*input)[0] != kFrameTag) {
    return Status::Corruption(
        "unknown pipeline message: not a versioned batch frame");
  }
  input->remove_prefix(1);
  if (input->empty()) return Status::Corruption("batch frame preamble");
  const uint8_t version = static_cast<uint8_t>((*input)[0]);
  input->remove_prefix(1);
  if (version != kFrameVersion) {
    return Status::SchemaMismatch(
        "batch frame version " + std::to_string(version) +
        " is not supported by this build (max " +
        std::to_string(kFrameVersion) + ")");
  }
  uint32_t features = 0;
  if (!GetFixed32(input, &features)) {
    return Status::Corruption("batch frame preamble");
  }
  if ((features & ~kKnownFeatureBits) != 0) {
    const uint32_t unknown = features & ~kKnownFeatureBits;
    std::string hex = "0x";
    for (int shift = 28; shift >= 0; shift -= 4) {
      hex.push_back("0123456789abcdef"[(unknown >> shift) & 0xf]);
    }
    return Status::SchemaMismatch("batch frame carries unknown feature bits " +
                                  hex + "; a newer writer produced it");
  }
  if (input->empty()) return Status::Corruption("batch frame kind");
  const char kind = (*input)[0];
  input->remove_prefix(1);
  if (kind != kLiveKind && kind != kSnapshotKind) {
    return Status::SchemaMismatch(
        std::string("batch frame has unknown kind tag '") + kind +
        "'; a newer writer produced it");
  }
  id->snapshot = kind == kSnapshotKind;
  Slice source;
  if (!GetLengthPrefixed(input, &source) || !GetFixed64(input, &id->epoch) ||
      !GetFixed64(input, &id->seq) || !GetFixed64(input, &id->schema_epoch) ||
      !GetFixed32(input, crc)) {
    return Status::Corruption("batch identity frame");
  }
  id->source_id = source.ToString();
  return Status::OK();
}

}  // namespace

void EncodeValueDeltaMessage(const extract::BatchId& id,
                             const extract::DeltaBatch& batch,
                             std::string* out) {
  size_t crc_pos = 0;
  StartFrame(id, kValueDeltaTag, out, &crc_pos);
  batch.EncodeTo(out);
  FinishFrame(crc_pos, out);
}

void EncodeOpDeltaMessage(const extract::BatchId& id,
                          const std::vector<extract::OpDeltaTxn>& txns,
                          std::string* out) {
  size_t crc_pos = 0;
  StartFrame(id, kOpDeltaTag, out, &crc_pos);
  extract::SerializeOpDeltaTxns(txns, out);
  FinishFrame(crc_pos, out);
}

Status DecodeMessageId(Slice message, extract::BatchId* id) {
  uint32_t crc = 0;
  return DecodeHeader(&message, id, &crc);
}

Status DecodeMessage(Slice message, ShippedMessage* out) {
  uint32_t crc = 0;
  OPDELTA_RETURN_IF_ERROR(DecodeHeader(&message, &out->id, &crc));
  if (Crc32c(message.data(), message.size()) != crc) {
    // Deterministic Corruption: the hub's apply path diverts the batch to
    // the dead-letter log instead of retrying a damaged payload forever.
    return Status::Corruption("batch payload crc mismatch for " +
                              out->id.ToString());
  }
  if (message.empty()) return Status::Corruption("empty pipeline message");
  const char tag = message[0];
  message.remove_prefix(1);
  switch (tag) {
    case kValueDeltaTag:
      out->kind = PayloadKind::kValueDelta;
      out->op_body = Slice();
      return extract::DeltaBatch::DecodeFrom(message, &out->batch);
    case kOpDeltaTag:
      out->kind = PayloadKind::kOpDelta;
      out->batch = extract::DeltaBatch();
      out->op_body = message;
      return Status::OK();
    default:
      return Status::Corruption(
          std::string("unknown pipeline message payload tag '") + tag + "'");
  }
}

}  // namespace opdelta::pipeline
