(* Machine-speed calibration.

   The benchmark runs on a few vCPUs of a shared host, where the CPU
   speed it gets changes by up to 1.7x within minutes as other tenants
   come and go (see README.md, Noise). Every timing would follow that
   speed. So the harness times this fixed reference loop just before
   every operation and before every set-up, and scales each timing by
   [reference_ns / loop time]: a timing reads as it would on a machine
   where the loop takes [reference_ns].

   The loop does integer mixing, a data-dependent branch, and strided
   loads and stores over a 32 KB array. It calls no program code and
   allocates nothing, so neither a change to the program nor the state
   of its heap can change the loop's time: only the machine can. *)

let ring = Array.make 4096 0

let loop () =
  let acc = ref 0 in
  for r = 1 to 20 do
    for i = 0 to 4095 do
      ring.(i) <- (i * r) lxor !acc
    done;
    for i = 0 to 4095 do
      let v = ring.((i * 7) land 4095) in
      acc := ((!acc * 31) + v) land 0xFFFFFFF;
      if v land 1 = 0 then acc := !acc + 3
    done
  done;
  !acc

(* One timing of the loop, in ns. *)
let sample_ns () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (loop ()));
  Span.now_ns () - t0

(* The loop's time on the 2-vCPU VM where the benchmark was sized, in
   its faster spells. *)
let reference_ns = 250_000.

(* The factor that scales a timing taken when the loop took
   [loop_ns]. *)
let factor loop_ns = reference_ns /. loop_ns
