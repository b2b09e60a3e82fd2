(** Reference implementations of the Lemma-7 point sampler and the
    Theorem-3 round loop, kept as the straightforward versions the
    library's allocation-free ones are held equal to (test_compress_diff).

    [transmit]/[decode] keep a block as an array of boxed
    [(symbol, height)] points, copy the accepted block, and build [P'] as
    a list. [compress_parallel] decodes every product code into a fresh
    digit array and multiplies through float refs; [run_rounds] keeps one
    observer per copy and recomputes its view for every copy, every
    round. Trace events and metrics are emitted exactly as the library
    emits them. *)

module Am = Compress.Amortized
module Observer = Compress.Observer

type result = {
  sent : int;
  bits : int;
  aborted : bool;
  block : int;
  log_ratio : int;
}

let gen_point rng u =
  let x = Prob.Rng.int rng u in
  let p = Prob.Rng.float rng in
  (x, p)

let ceil_log2_ratio num den =
  let s = ref 0 in
  if num > den then begin
    let d = ref den in
    while !d < num do
      d := !d *. 2.;
      incr s
    done
  end
  else begin
    let nn = ref num in
    while !nn *. 2. <= den do
      nn := !nn *. 2.;
      decr s
    done
  end;
  !s

let transmit ~rng ~eta ~nu ?(eps = 0.01) ?max_blocks writer =
  let u = Array.length eta in
  if Array.length nu <> u || u = 0 then invalid_arg "Point_sampler.transmit";
  let max_blocks =
    match max_blocks with
    | Some b -> b
    | None -> Compress.Point_sampler.default_max_blocks eps
  in
  let bits_before = Coding.Bitbuf.Writer.length writer in
  let traced = Obs.Trace.enabled () in
  let points = Array.make u (0, 0.) in
  let rec scan_block b =
    if b > max_blocks then None
    else begin
      for i = 0 to u - 1 do
        points.(i) <- gen_point rng u
      done;
      let rec find i =
        if i = u then None
        else
          let x, p = points.(i) in
          if p < eta.(x) then Some i else find (i + 1)
      in
      match find 0 with
      | Some i -> Some (b, i, Array.copy points)
      | None ->
          if traced then Obs.Trace.emit (Obs.Event.Sampler_reject { block = b });
          scan_block (b + 1)
    end
  in
  match scan_block 1 with
  | None ->
      let rec draw () =
        let x, p = gen_point rng u in
        if p < eta.(x) then x else draw ()
      in
      let x = draw () in
      Coding.Intcode.write_gamma writer (max_blocks + 1);
      Coding.Intcode.write_fixed writer ~bound:u x;
      let bits = Coding.Bitbuf.Writer.length writer - bits_before in
      if traced then Obs.Trace.emit (Obs.Event.Sampler_abort { bits });
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.bump "sampler.transmissions" 1;
        Obs.Metrics.bump "sampler.aborts" 1;
        Obs.Metrics.bump "sampler.bits" bits;
        Obs.Metrics.record "sampler.bits_per_round" bits
      end;
      { sent = x; bits; aborted = true; block = 0; log_ratio = 0 }
  | Some (block, index, pts) ->
      let x, _p = pts.(index) in
      if nu.(x) <= 0. then
        invalid_arg "Point_sampler.transmit: eta not dominated by nu";
      let s = ceil_log2_ratio eta.(x) nu.(x) in
      let scaled = Float.min 1. (Float.ldexp nu.(x) s) in
      assert (eta.(x) <= scaled +. 1e-12);
      let p' = ref [] in
      for i = u - 1 downto 0 do
        let xi, pi = pts.(i) in
        if pi < Float.min 1. (Float.ldexp nu.(xi) s) then p' := i :: !p'
      done;
      let p'_size = List.length !p' in
      let rank =
        let rec go c = function
          | [] -> assert false
          | i :: _ when i = index -> c
          | _ :: rest -> go (c + 1) rest
        in
        go 0 !p'
      in
      Coding.Intcode.write_gamma writer block;
      Coding.Intcode.write_signed_gamma writer s;
      Coding.Intcode.write_fixed writer ~bound:p'_size rank;
      let bits = Coding.Bitbuf.Writer.length writer - bits_before in
      if traced then
        Obs.Trace.emit (Obs.Event.Sampler_accept { block; log_ratio = s; bits });
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.bump "sampler.transmissions" 1;
        Obs.Metrics.bump "sampler.bits" bits;
        Obs.Metrics.record "sampler.block" block;
        Obs.Metrics.record "sampler.bits_per_round" bits
      end;
      { sent = x; bits; aborted = false; block; log_ratio = s }

let decode ~rng ~nu ~u ~max_blocks reader =
  let block = Coding.Intcode.read_gamma reader in
  if block = max_blocks + 1 then Coding.Intcode.read_fixed reader ~bound:u
  else begin
    let points = Array.make u (0, 0.) in
    for _b = 1 to block do
      for i = 0 to u - 1 do
        points.(i) <- gen_point rng u
      done
    done;
    let s = Coding.Intcode.read_signed_gamma reader in
    let p' = ref [] in
    Array.iter
      (fun (xi, pi) ->
        if pi < Float.min 1. (Float.ldexp nu.(xi) s) then p' := xi :: !p')
      points;
    let p' = Array.of_list (List.rev !p') in
    let rank = Coding.Intcode.read_fixed reader ~bound:(Array.length p') in
    if rank >= Array.length p' then
      invalid_arg "Point_sampler.decode: rank out of range";
    p'.(rank)
  end

let mixed_radix_decode arities code =
  let n = Array.length arities in
  let values = Array.make n 0 in
  let c = ref code in
  for i = n - 1 downto 0 do
    values.(i) <- !c mod arities.(i);
    c := !c / arities.(i)
  done;
  values

let divergence_bits eta nu =
  let d = ref 0. in
  Array.iteri
    (fun i p -> if p > 0. then d := !d +. (p *. Float.log2 (p /. nu.(i))))
    eta;
  !d

let run_rounds ~what ~seed ~tree ~mu ~inputs transmit =
  let copies = Array.length inputs in
  if copies = 0 then invalid_arg what;
  let public = Blackboard.Runtime.public_rng ~seed in
  let writer = Coding.Bitbuf.Writer.create () in
  let observers = Array.map (fun _ -> Observer.create tree mu) inputs in
  let rounds = ref 0 in
  let transmissions = ref 0 in
  let aborted = ref 0 in
  let agreed = ref true in
  let any_active () =
    Array.exists (fun o -> not (Observer.finished o)) observers
  in
  let settle_chance () =
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iteri
        (fun c o ->
          match Observer.chance_view o with
          | Some law ->
              let coin_rng = Prob.Rng.split public in
              let x = ref (Prob.Rng.float coin_rng) in
              let pick = ref 0 in
              (try
                 Array.iteri
                   (fun i p ->
                     if !x < p then begin
                       pick := i;
                       raise Exit
                     end
                     else x := !x -. p)
                   law
               with Exit -> ());
              observers.(c) <- Observer.advance_coin o !pick;
              changed := true
          | None -> ())
        observers
    done
  in
  while any_active () do
    incr rounds;
    let traced = Obs.Trace.enabled () in
    if traced then Obs.Trace.emit (Obs.Event.Round_start { round = !rounds });
    let round_mark = Coding.Bitbuf.Writer.length writer in
    settle_chance ();
    let groups = Hashtbl.create 4 in
    Array.iteri
      (fun c o ->
        match Observer.speak_view o with
        | Some (speaker, _, _) ->
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt groups speaker)
            in
            Hashtbl.replace groups speaker (c :: existing)
        | None -> ())
      observers;
    let speakers =
      List.sort compare (Hashtbl.fold (fun sp _ acc -> sp :: acc) groups [])
    in
    List.iter
      (fun speaker ->
        let group = Array.of_list (List.rev (Hashtbl.find groups speaker)) in
        let etas =
          Array.map
            (fun c -> Observer.speaker_eta observers.(c) inputs.(c).(speaker))
            group
        in
        let nus =
          Array.map
            (fun c ->
              match Observer.speak_view observers.(c) with
              | Some (_, _, nu) -> nu
              | None -> assert false)
            group
        in
        let sent, fell_back, decoded =
          transmit ~public ~traced ~etas ~nus writer
        in
        incr transmissions;
        if fell_back then incr aborted;
        if not decoded then agreed := false;
        Array.iteri
          (fun gi c ->
            observers.(c) <- Observer.advance_msg observers.(c) sent.(gi))
          group)
      speakers;
    settle_chance ();
    if traced then
      Obs.Trace.emit
        (Obs.Event.Round_end
           {
             round = !rounds;
             bits = Coding.Bitbuf.Writer.length writer - round_mark;
           })
  done;
  let total_bits = Coding.Bitbuf.Writer.length writer in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.bump "amortized.rounds" !rounds;
    Obs.Metrics.bump "amortized.transmissions" !transmissions;
    Obs.Metrics.bump "amortized.aborts" !aborted;
    Obs.Metrics.bump "amortized.bits" total_bits
  end;
  {
    Am.copies;
    total_bits;
    per_copy_bits = float_of_int total_bits /. float_of_int copies;
    rounds = !rounds;
    transmissions = !transmissions;
    aborted = !aborted;
    outputs = Array.map Observer.output_exn observers;
    agreed = !agreed;
  }

let compress_parallel ?(eps = 0.01) ~seed ~tree ~mu ~inputs () =
  let max_blocks = Compress.Point_sampler.default_max_blocks eps in
  run_rounds ~what:"Amortized.compress_parallel: no copies" ~seed ~tree ~mu
    ~inputs (fun ~public ~traced ~etas ~nus writer ->
      let arities = Array.map Array.length nus in
      let log_u =
        Array.fold_left
          (fun acc a -> acc +. Float.log2 (float_of_int a))
          0. arities
      in
      if log_u > float_of_int Am.max_log_u then
        invalid_arg
          "Amortized.compress_parallel: product universe too large \
           (reduce copies)";
      let u = Array.fold_left (fun acc a -> acc * a) 1 arities in
      let eta = Array.make u 0. and nu = Array.make u 0. in
      for code = 0 to u - 1 do
        let values = mixed_radix_decode arities code in
        let pe = ref 1. and pn = ref 1. in
        Array.iteri
          (fun gi v ->
            pe := !pe *. etas.(gi).(v);
            pn := !pn *. nus.(gi).(v))
          values;
        eta.(code) <- !pe;
        nu.(code) <- !pn
      done;
      if traced then
        Obs.Trace.emit
          (Obs.Event.Sampler_budget
             { divergence = divergence_bits eta nu; eps });
      let round_rng = Prob.Rng.split public in
      let decoder_rng = Prob.Rng.copy round_rng in
      let reader_mark = Coding.Bitbuf.Writer.length writer in
      let res = transmit ~rng:round_rng ~eta ~nu ~eps ~max_blocks writer in
      let round_vec =
        Coding.Bitbuf.Writer.extract writer ~pos:reader_mark
          ~len:(Coding.Bitbuf.Writer.length writer - reader_mark)
      in
      let reader = Coding.Bitbuf.Reader.of_vec round_vec in
      let decoded = decode ~rng:decoder_rng ~nu ~u ~max_blocks reader in
      (mixed_radix_decode arities res.sent, res.aborted, decoded = res.sent))

let compress_parallel_factored ?(eps = 0.01) ~seed ~tree ~mu ~inputs () =
  run_rounds ~what:"Amortized.compress_parallel_factored" ~seed ~tree ~mu
    ~inputs (fun ~public ~traced ~etas ~nus writer ->
      if traced then begin
        let d = ref 0. in
        Array.iteri
          (fun gi eta -> d := !d +. divergence_bits eta nus.(gi))
          etas;
        Obs.Trace.emit (Obs.Event.Sampler_budget { divergence = !d; eps })
      end;
      let round_rng = Prob.Rng.split public in
      let res =
        Compress.Factored_sampler.transmit ~rng:round_rng ~etas ~nus ~eps writer
      in
      (res.Compress.Factored_sampler.sent,
       res.Compress.Factored_sampler.aborted, true))
