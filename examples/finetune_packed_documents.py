"""Fine-tuning on packed variable-length documents with loss masking.

The realistic data pipeline: documents of varying length are packed into
fixed rows with EOS separators; the padding tail is excluded from the
loss via a loss mask (Megatron semantics).  Training runs on the full
parallel stack (t=2 + SP + selective recompute), checkpoints mid-run,
resumes, and reports masked perplexity.

Run:  python examples/finetune_packed_documents.py
"""

import os
import tempfile

import numpy as np

from repro.config import ModelConfig
from repro.inference import evaluation
from repro.layers import Recompute, token_tensor
from repro.parallel import ParallelGPTModel
from repro.tensor import FP32, Tensor, no_grad, seed
from repro.training import (
    Adam, PackedDocuments, WarmupDecayLR, load_training_state,
    save_training_state,
)


def masked_loss(model, ids, targets, mask, world):
    mask_t = Tensor([mask] * world, dtype=FP32)
    v = model.config.vocab_size
    return model(token_tensor(ids, v, world=world),
                 token_tensor(targets, v, world=world), loss_mask=mask_t)


def main() -> None:
    config = ModelConfig(num_layers=4, hidden_size=48, num_heads=4,
                         seq_length=32, vocab_size=24, name="finetune")
    seed(0)
    model = ParallelGPTModel(config, tensor_parallel=2, sequence_parallel=True,
                             recompute=Recompute.SELECTIVE,
                             attention_dropout=0.0, hidden_dropout=0.0, seed=0)
    optimizer = Adam(model.parameters(), lr=2e-3, grad_clip=1.0)
    scheduler = WarmupDecayLR(optimizer, max_lr=2e-3, total_steps=40,
                              warmup_steps=5, min_lr=2e-4)
    data = PackedDocuments(config.vocab_size, config.seq_length, seed=1)

    print(f"fine-tuning {model.num_parameters():,} params on packed "
          "documents (EOS-separated, padding masked out of the loss)\n")
    ckpt = os.path.join(tempfile.gettempdir(), "repro_finetune.npz")
    for step in range(1, 41):
        scheduler.step()
        ids, targets, mask = data.batch(8)
        optimizer.zero_grad()
        loss = masked_loss(model, ids, targets, mask, world=2)
        loss.backward()
        model.finish_grad_sync()
        optimizer.step()
        if step % 8 == 0 or step == 1:
            print(f"step {step:3d}  masked loss {loss.item():.4f}  "
                  f"(mask keeps {mask.mean():.0%} of targets)")
        if step == 20:
            save_training_state(model, optimizer, ckpt)
            print(f"  -- checkpointed at step 20 -> {ckpt}")

    # resume from the mid-run checkpoint and verify continuity
    resumed = ParallelGPTModel(config, tensor_parallel=2, sequence_parallel=True,
                               recompute=Recompute.SELECTIVE,
                               attention_dropout=0.0, hidden_dropout=0.0, seed=99)
    opt2 = Adam(resumed.parameters(), lr=2e-3, grad_clip=1.0)
    load_training_state(resumed, opt2, ckpt)
    print(f"\nresumed from step-{opt2.step_count} checkpoint")

    ids, targets, mask = data.batch(8)
    with no_grad(), evaluation(model):
        val = masked_loss(model, ids, targets, mask, 2).item()
    print(f"validation masked loss {val:.4f} "
          f"(perplexity {np.exp(val):.2f}; uniform would be "
          f"{config.vocab_size})")


if __name__ == "__main__":
    main()
