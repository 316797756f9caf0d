(* The paper experiments E1–E23 as a test: every gate of the paper
   report ([bench/main.exe paper]) must hold. *)

let paper_gates () =
  let _, violations = Paper.run () in
  Alcotest.(check (list string)) "violated paper gates" [] violations

let () =
  Alcotest.run "paper"
    [
      ( "paper",
        [ Alcotest.test_case "E1-E23 report gates" `Quick paper_gates ] );
    ]
